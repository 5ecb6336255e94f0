package pipeline_test

// The diag layer's attribution contract: a CPU profile taken during a
// multi-session run must attribute the overwhelming share of pipeline
// samples to the correct session/stage labels (or to a scheduler client
// for pool-stolen chunks). The samples are read back through the
// toolchain's `go tool pprof -traces`, the same reader an operator points
// at a bundle's profile, so the assertion exercises the label threading
// end to end.

import (
	"bytes"
	"io"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"gamestreamsr/internal/diag"
	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/testkit"
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

	total, samples := testkit.PprofTraces(t, buf.Bytes())
	known := map[string]bool{}
	for _, s := range sessions {
		known[s] = true
	}
	// Pipeline samples are those whose stacks touch this module's code;
	// runtime-internal samples (GC workers, the profiler itself) are the
	// process's overhead, not pipeline-stage work.
	var pipelineNanos, attributed int64
	var nSamples int
	for _, s := range samples {
		inPipeline := false
		for _, fn := range s.Stack {
			if strings.HasPrefix(fn, "gamestreamsr/") {
				inPipeline = true
				break
			}
		}
		if !inPipeline {
			continue
		}
		pipelineNanos += s.Nanos
		nSamples++
		switch {
		case known[s.Labels["session"]]:
			attributed += s.Nanos
		case s.Labels["sched_client"] != "":
			// Pool workers executing stolen chunks carry the scheduler
			// client's identity instead of a session.
			attributed += s.Nanos
		}
	}
	if nSamples < 30 {
		t.Skipf("only %d pipeline samples captured — machine too starved to assert a ratio", nSamples)
	}
	ratio := float64(attributed) / float64(pipelineNanos)
	t.Logf("pipeline samples: %d (%v CPU of %v profiled), attributed to session/sched labels: %.1f%%",
		nSamples, time.Duration(pipelineNanos), time.Duration(total), 100*ratio)
	if ratio < 0.90 {
		t.Errorf("label attribution ratio %.1f%% < 90%%", 100*ratio)
	}
}

// TestRunDeterministicWithDiag pins the diag acceptance contract that
// instrumentation never alters outputs: a run with session labels, a
// triggered capture profiling the CPU throughout and logging active is
// byte-identical to a bare run of the same config.
func TestRunDeterministicWithDiag(t *testing.T) {
	base := runJSON(t, runners(t)["gamestream"])

	d := diag.New(diag.Config{Cooldown: time.Hour, Log: logx.NewRing(io.Discard)})
	defer d.Close()
	if !d.Trigger("determinism") {
		t.Fatal("trigger suppressed")
	}
	cfg := detConfig(t)
	cfg.Session = "diag-on"
	withDiag := runJSON(t, runnersWith(t, cfg)["gamestream"])
	d.Close()
	if d.Latest() == nil {
		t.Fatal("the capture published no bundle")
	}
	if !bytes.Equal(base, withDiag) {
		t.Error("pipeline output with diag on differs from diag off")
	}
}
