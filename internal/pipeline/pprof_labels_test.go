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
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gamestreamsr/internal/diag"
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

	total, samples := pprofTraces(t, buf.Bytes())
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
		for _, fn := range s.stack {
			if strings.HasPrefix(fn, "gamestreamsr/") {
				inPipeline = true
				break
			}
		}
		if !inPipeline {
			continue
		}
		pipelineNanos += s.nanos
		nSamples++
		switch {
		case known[s.labels["session"]]:
			attributed += s.nanos
		case s.labels["sched_client"] != "":
			// Pool workers executing stolen chunks carry the scheduler
			// client's identity instead of a session.
			attributed += s.nanos
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

// traceSample is one sample block of `go tool pprof -traces`: its labels,
// its CPU time and its stack, leaf first.
type traceSample struct {
	labels map[string]string
	nanos  int64
	stack  []string
}

const tracesSeparator = "-----------+-------------------------------------------------------\n"

var (
	tracesTotal = regexp.MustCompile(`Total samples = (\d+)(?:ns)? `)
	tracesLabel = regexp.MustCompile(`^ *(\S+):  (.*)$`)
	tracesValue = regexp.MustCompile(`^ *(\d+)(?:ns)?   (\S.*)$`)
	tracesFrame = regexp.MustCompile(`^ +(\S.*)$`)
)

// pprofTraces reads profile's samples through the local toolchain's
// `go tool pprof -traces`, in nanoseconds, and returns the header's total
// with every sample block. Output it cannot parse fails the test, and so
// does a set of blocks whose values do not add up to the total: a change
// in the toolchain's format must show, not pass as an empty profile.
func pprofTraces(t *testing.T, profile []byte) (total int64, samples []traceSample) {
	t.Helper()
	file := filepath.Join(t.TempDir(), "cpu.pb.gz")
	if err := os.WriteFile(file, profile, 0o644); err != nil {
		t.Fatal(err)
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go toolchain not on PATH: %v", err)
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-traces", "-symbolize=none", "-unit=ns", file)
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local") // never download a toolchain
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go tool pprof -traces: %v\n%s", err, stderr.Bytes())
	}
	head, body, ok := strings.Cut(string(out), tracesSeparator)
	m := tracesTotal.FindStringSubmatch(head)
	if !ok || m == nil {
		t.Fatalf("go tool pprof -traces: no separator or no Total samples header in:\n%s", out)
	}
	total, _ = strconv.ParseInt(m[1], 10, 64)
	blocks := strings.Split(body, tracesSeparator)
	if blocks[len(blocks)-1] != "" {
		t.Fatalf("go tool pprof -traces: output does not end on a separator:\n%s", blocks[len(blocks)-1])
	}
	var sum int64
	for _, blk := range blocks[:len(blocks)-1] {
		s := traceSample{labels: map[string]string{}}
		for _, line := range strings.Split(strings.TrimSuffix(blk, "\n"), "\n") {
			switch {
			case s.stack == nil && tracesValue.MatchString(line):
				m := tracesValue.FindStringSubmatch(line)
				s.nanos, _ = strconv.ParseInt(m[1], 10, 64)
				s.stack = []string{m[2]}
			case s.stack == nil && tracesLabel.MatchString(line):
				m := tracesLabel.FindStringSubmatch(line)
				s.labels[m[1]] = m[2]
			case s.stack != nil && tracesFrame.MatchString(line):
				s.stack = append(s.stack, tracesFrame.FindStringSubmatch(line)[1])
			default:
				t.Fatalf("go tool pprof -traces: unparseable line %q in sample block:\n%s", line, blk)
			}
		}
		if s.stack == nil {
			t.Fatalf("go tool pprof -traces: sample block without a value line:\n%s", blk)
		}
		sum += s.nanos
		samples = append(samples, s)
	}
	if sum != total {
		t.Fatalf("go tool pprof -traces: sample blocks add up to %dns, header says %dns", sum, total)
	}
	return total, samples
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

	cfg := detConfig(t)
	cfg.Session = "diag-on"
	withDiag := runJSON(t, runnersWith(t, cfg)["gamestream"])
	if !bytes.Equal(base, withDiag) {
		t.Error("pipeline output with diag on differs from diag off")
	}
}
