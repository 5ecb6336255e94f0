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
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/srdecoder"
	"gamestreamsr/internal/telemetry"
	"gamestreamsr/internal/upscale"
)

// counterOf returns the named counter's value in s (0 when absent).
func counterOf(s telemetry.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func detConfig(t testing.TB) pipeline.Config {
	t.Helper()
	g, err := games.ByID("G3")
	if err != nil {
		t.Fatal(err)
	}
	return pipeline.Config{Game: g, SimDiv: 8, GOPSize: 4}
}

// detConfigTelemetry is detConfig with full instrumentation attached: the
// determinism contract must hold unchanged with telemetry on.
func detConfigTelemetry(t testing.TB) pipeline.Config {
	cfg := detConfig(t)
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Flight = frametrace.New(frametrace.Config{Metrics: cfg.Metrics})
	return cfg
}

// runJSON performs one run and returns its results serialized, in variant
// order.
func runJSON(t *testing.T, run func() ([]*pipeline.Result, error)) []byte {
	t.Helper()
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range res {
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func runners(t *testing.T) map[string]func() ([]*pipeline.Result, error) {
	return runnersWith(t, detConfig(t))
}

// runnersWith maps a name to an 8-frame run of cfg: each variant alone
// ("gamestream" through the GameStream session), and "onepass", all three
// on one server pass.
func runnersWith(t *testing.T, cfg pipeline.Config) map[string]func() ([]*pipeline.Result, error) {
	t.Helper()
	run := func(vs ...pipeline.Variant) func() ([]*pipeline.Result, error) {
		return func() ([]*pipeline.Result, error) { return pipeline.Run(cfg, 8, vs...) }
	}
	return map[string]func() ([]*pipeline.Result, error){
		"gamestream": func() ([]*pipeline.Result, error) {
			gs, err := pipeline.NewGameStream(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := gs.Run(8)
			return []*pipeline.Result{res}, err
		},
		"nemo":      run(nemo.New()),
		"srdecoder": run(srdecoder.New(upscale.Bicubic)),
		"onepass":   run(pipeline.Ours(), nemo.New(), srdecoder.New(upscale.Bicubic)),
	}
}

// TestOnePassMatchesSoloRuns asserts that one server pass feeding three
// variants gives each the results it gets alone: per-variant decoders and
// reference frames share nothing, and the shared server stage,
// ground truth and pool alter no pixel — with telemetry and flight
// recording attached too.
func TestOnePassMatchesSoloRuns(t *testing.T) {
	for name, cfg := range map[string]pipeline.Config{"plain": detConfig(t), "telemetry": detConfigTelemetry(t)} {
		t.Run(name, func(t *testing.T) {
			runs := runnersWith(t, cfg)
			var solo []byte
			for _, v := range []string{"gamestream", "nemo", "srdecoder"} {
				solo = append(solo, runJSON(t, runs[v])...)
			}
			if !bytes.Equal(runJSON(t, runs["onepass"]), solo) {
				t.Fatal("one pass over three variants differs from three solo runs")
			}
		})
	}
}

// TestRunTwiceOnOneSession pins the determinism contract on a reused
// session: the decoders and the server stage are built when a run starts,
// so a second Run of the same GameStream gives the same results as the
// first.
func TestRunTwiceOnOneSession(t *testing.T) {
	gs, err := pipeline.NewGameStream(detConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]*pipeline.Result, error) {
		res, err := gs.Run(8)
		return []*pipeline.Result{res}, err
	}
	if !bytes.Equal(runJSON(t, run), runJSON(t, run)) {
		t.Fatal("second Run on the same GameStream differs")
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
// through it: frames, per-stage spans, queue waits, RoI areas and
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
	if got := counterOf(s, "pipeline_frames_total"); got != n {
		t.Errorf("frames_total = %d, want %d", got, n)
	}
	if rep := cfg.Flight.Report(); rep.Delivered != n {
		t.Errorf("delivered = %d, want every frame (%d)", rep.Delivered, n)
	}
	// Every frame the server encodes is delivered, so the counter is the
	// result's bytes.
	var coded int64
	for _, f := range res.Frames {
		coded += int64(f.CodedBytes)
	}
	if got := counterOf(s, "pipeline_coded_bytes_total"); got != coded || got == 0 {
		t.Errorf("coded_bytes_total = %d, want %d", got, coded)
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
		if counterOf(s, c) < 0 {
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
		if counterOf(s, c) <= 0 {
			t.Errorf("%s = %d, want > 0", c, counterOf(s, c))
		}
	}
}
