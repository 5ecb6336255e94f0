package pipeline_test

// Determinism contract of the staged engine: a Run is a pure function of
// its Config. The concurrent stages and the tile-worker pool must not leak
// scheduling into results — the serialized JSON must be byte-identical
// across repeated runs and across GOMAXPROCS settings. Run these under
// -race to also prove the stages share no unsynchronised state.

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/nemo"
	"gamestreamsr/internal/network"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/srdecoder"
	"gamestreamsr/internal/telemetry"
	"gamestreamsr/internal/upscale"
)

func detConfig(t testing.TB) pipeline.Config {
	t.Helper()
	g, err := games.ByID("G3")
	if err != nil {
		t.Fatal(err)
	}
	return pipeline.Config{
		Game:    g,
		SimDiv:  8,
		GOPSize: 4,
		// Nonzero loss exercises the drop/freeze path in the GameStream
		// runner; the baselines ignore it.
		Net: network.Config{LossRate: 0.25, Seed: 7},
	}
}

// detConfigTelemetry is detConfig with full instrumentation attached: the
// determinism contract must hold unchanged with telemetry on.
func detConfigTelemetry(t testing.TB) pipeline.Config {
	cfg := detConfig(t)
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Flight = frametrace.New(frametrace.Config{Metrics: cfg.Metrics})
	return cfg
}

// runJSON builds a fresh runner (the network RNG is per-runner state) and
// returns the serialized result of an 8-frame run.
func runJSON(t *testing.T, run func() (*pipeline.Result, error)) []byte {
	t.Helper()
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func runners(t *testing.T) map[string]func() (*pipeline.Result, error) {
	return runnersWith(t, detConfig(t))
}

func runnersWith(t *testing.T, cfg pipeline.Config) map[string]func() (*pipeline.Result, error) {
	t.Helper()
	return map[string]func() (*pipeline.Result, error){
		"gamestream": func() (*pipeline.Result, error) {
			gs, err := pipeline.NewGameStream(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return gs.Run(8)
		},
		"nemo": func() (*pipeline.Result, error) {
			r, err := nemo.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return r.Run(8)
		},
		"srdecoder": func() (*pipeline.Result, error) {
			r, err := srdecoder.New(cfg, upscale.Bicubic)
			if err != nil {
				t.Fatal(err)
			}
			return r.Run(8)
		},
	}
}

func TestRunDeterministicAcrossRepeats(t *testing.T) {
	for name, run := range runners(t) {
		t.Run(name, func(t *testing.T) {
			first := runJSON(t, run)
			again := runJSON(t, run)
			if !bytes.Equal(first, again) {
				t.Fatalf("%s: two runs of the same Config produced different JSON", name)
			}
		})
	}
}

func TestRunDeterministicAcrossGOMAXPROCS(t *testing.T) {
	for name, run := range runners(t) {
		t.Run(name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(1)
			serial := runJSON(t, run)
			runtime.GOMAXPROCS(prev)
			concurrent := runJSON(t, run)
			if !bytes.Equal(serial, concurrent) {
				t.Fatalf("%s: GOMAXPROCS=1 and GOMAXPROCS=%d disagree", name, prev)
			}
		})
	}
}

// TestRunDeterministicWithTelemetry asserts the telemetry extension of the
// contract from two directions: instrumented runs are byte-identical to
// each other AND to uninstrumented runs (enabling a Registry/Recorder must
// not perturb results), across GOMAXPROCS settings.
func TestRunDeterministicWithTelemetry(t *testing.T) {
	plain := runners(t)
	instrumented := runnersWith(t, detConfigTelemetry(t))
	for name := range plain {
		t.Run(name, func(t *testing.T) {
			base := runJSON(t, plain[name])
			withTel := runJSON(t, instrumented[name])
			if !bytes.Equal(base, withTel) {
				t.Fatalf("%s: enabling telemetry changed the result JSON", name)
			}
			prev := runtime.GOMAXPROCS(1)
			serial := runJSON(t, instrumented[name])
			runtime.GOMAXPROCS(prev)
			if !bytes.Equal(base, serial) {
				t.Fatalf("%s: instrumented GOMAXPROCS=1 run disagrees", name)
			}
		})
	}
}

// TestEngineTelemetryCounts asserts the engine actually records what flows
// through it: frames, freezes, per-stage spans, queue waits, RoI areas and
// coded bytes, and the flight recorder's per-stage spans.
func TestEngineTelemetryCounts(t *testing.T) {
	cfg := detConfigTelemetry(t)
	gs, err := pipeline.NewGameStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	res, err := gs.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.Metrics.Snapshot()
	if got := s.Counter("pipeline_frames_total"); got != n {
		t.Errorf("frames_total = %d, want %d", got, n)
	}
	if got := s.Counter("pipeline_frames_frozen_total"); got != int64(res.DropCount()) {
		t.Errorf("frozen_total = %d, want %d", got, res.DropCount())
	}
	// The server encodes every frame, including ones later lost in
	// transit, so the counter is at least the delivered frames' bytes
	// (frozen frames don't carry CodedBytes in the Result).
	var coded int64
	for _, f := range res.Frames {
		coded += int64(f.CodedBytes)
	}
	if got := s.Counter("pipeline_coded_bytes_total"); got < coded || got == 0 {
		t.Errorf("coded_bytes_total = %d, want >= %d", got, coded)
	}
	for _, hist := range []string{
		"pipeline_server_stage_seconds",
		"pipeline_client_stage_seconds",
		"pipeline_measure_stage_seconds",
		"pipeline_roi_area_px",
		"pipeline_coded_frame_bytes",
	} {
		h, ok := s.Histogram(hist)
		if !ok || h.Count != n {
			t.Errorf("%s: count = %d (present %v), want %d", hist, h.Count, ok, n)
		}
	}
	// Queue-wait counters exist (they may legitimately be ~0 on a fast
	// machine, but the metric must be registered and non-negative).
	for _, c := range []string{"pipeline_server_queue_wait_ns_total", "pipeline_client_queue_wait_ns_total"} {
		if s.Counter(c) < 0 {
			t.Errorf("%s negative", c)
		}
	}
	// The flight recorder holds one span per stage per frame, on the
	// server/client/measure lanes.
	spans, totals := 0, map[string]time.Duration{}
	for _, f := range cfg.Flight.Snapshot().Frames {
		for _, sp := range f.Spans {
			spans++
			totals[sp.Lane] += sp.Duration()
		}
	}
	if len(totals) != 3 || totals["server"] <= 0 || totals["client"] <= 0 || totals["measure"] <= 0 {
		t.Errorf("flight lane totals = %v, want server/client/measure", totals)
	}
	if spans != 3*n {
		t.Errorf("flight spans = %d, want %d", spans, 3*n)
	}
	// The run's buffer pool reports on the same registry: a multi-GOP run
	// must recycle (hits) after warming up (misses), and returns must have
	// happened for hits to be possible.
	for _, c := range []string{
		"pipeline_bufpool_hits_total",
		"pipeline_bufpool_misses_total",
		"pipeline_bufpool_returns_total",
	} {
		if s.Counter(c) <= 0 {
			t.Errorf("%s = %d, want > 0", c, s.Counter(c))
		}
	}
}
