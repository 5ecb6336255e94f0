package pipeline_test

// The diag layer's attribution contract (ISSUE 10 acceptance): a CPU
// profile taken during a multi-session run must attribute the
// overwhelming share of pipeline samples to the correct session/stage
// labels (or to a scheduler client for pool-stolen chunks). The profile
// is decoded with the in-repo pprof protobuf reader, so the assertion
// exercises both the label threading and the parser.

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"gamestreamsr/internal/diag"
	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/pipeline"
)

func TestCPUProfileAttributesSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling run is not -short")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler busy: %v", err)
	}
	// Two concurrent sessions, distinct label names, each looping runs
	// until the profile window has seen ~1.5s of pipeline work.
	sessions := []string{"sess-a", "sess-b"}
	deadline := time.Now().Add(1500 * time.Millisecond)
	var wg sync.WaitGroup
	for _, name := range sessions {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				cfg := detConfig(t)
				cfg.Session = name
				gs, err := pipeline.NewGameStream(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := gs.Run(8); err != nil {
					t.Error(err)
					return
				}
			}
		}(name)
	}
	wg.Wait()
	pprof.StopCPUProfile()

	p, err := diag.ParseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	vi := p.CPUIndex()
	known := map[string]bool{}
	for _, s := range sessions {
		known[s] = true
	}
	// Pipeline samples are those whose stacks touch this module's code;
	// runtime-internal samples (GC workers, the profiler itself) are the
	// process's overhead, not pipeline-stage work.
	var total, attributed int64
	var nSamples int
	for _, s := range p.Samples {
		inPipeline := false
		for _, fn := range s.Stack {
			if strings.HasPrefix(fn, "gamestreamsr/") {
				inPipeline = true
				break
			}
		}
		if !inPipeline || vi >= len(s.Value) {
			continue
		}
		total += s.Value[vi]
		nSamples++
		switch {
		case known[s.Labels["session"]]:
			attributed += s.Value[vi]
		case s.Labels["sched_client"] != "":
			// Pool workers executing stolen chunks carry the scheduler
			// client's identity instead of a session.
			attributed += s.Value[vi]
		}
	}
	if nSamples < 30 {
		t.Skipf("only %d pipeline samples captured — machine too starved to assert a ratio", nSamples)
	}
	ratio := float64(attributed) / float64(total)
	t.Logf("pipeline samples: %d (%v CPU), attributed to session/sched labels: %.1f%%",
		nSamples, time.Duration(total), 100*ratio)
	if ratio < 0.90 {
		t.Errorf("label attribution ratio %.1f%% < 90%%", 100*ratio)
	}
}

// TestRunDeterministicWithDiag pins the diag acceptance contract that
// instrumentation never alters outputs: a run with session labels, the
// continuous profile sampler armed and logging active is byte-identical
// to a bare run of the same config.
func TestRunDeterministicWithDiag(t *testing.T) {
	base := runJSON(t, runners(t)["gamestream"])

	sampler := diag.NewSampler(diag.SamplerConfig{Period: 40 * time.Millisecond, Duration: 15 * time.Millisecond})
	sampler.Start()
	defer sampler.Stop()
	log := logx.New(logx.Config{Out: &bytes.Buffer{}, Ring: 64})
	log.Info("diag-on determinism run starting")

	cfg := detConfig(t)
	cfg.Session = "diag-on"
	withDiag := runJSON(t, runnersWith(t, cfg)["gamestream"])
	if !bytes.Equal(base, withDiag) {
		t.Error("pipeline output with diag on differs from diag off")
	}
}
