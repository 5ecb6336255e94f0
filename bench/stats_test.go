package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestTailPctNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := tailPct(xs, 90); !ok {
		t.Error("p90 of 100 samples has ten beyond it and must be reported")
	}
	if _, ok := tailPct(xs, 95); ok {
		t.Error("p95 of 100 samples has only five beyond it and must not be reported")
	}
	if v, ok := tailPct(append(xs, xs...), 95); !ok || v < 90 {
		t.Errorf("p95 of 200 samples = %v, %v", v, ok)
	}
}

func TestGopWindowFPSIgnoresOneDisturbedWindow(t *testing.T) {
	// 1 warm-up GOP + 5 timed GOPs at 50 fps; the third timed GOP stalls.
	const gop, warm = 12, 12
	var present []float64
	now := 0.0
	for i := 0; i < warm+5*gop; i++ {
		step := 20_000.0
		if i/gop == 3 {
			step = 60_000
		}
		now += step
		present = append(present, now)
	}
	if got := gopWindowFPS(present, warm, gop, 0, nil); !near(got, 50) {
		t.Errorf("fps = %v, want 50 (median of the GOP windows)", got)
	}
	if got := gopWindowFPS(present[:warm], warm, gop, 0, nil); got != 0 {
		t.Errorf("no timed window must give 0, got %v", got)
	}
}

func TestSelfTimesMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, StartUS: 10, EndUS: 30},
		{ID: 3, Parent: 1, StartUS: 20, EndUS: 50}, // overlaps span 2
		{ID: 4, Parent: 1, StartUS: 60, EndUS: 70},
		{ID: 5, Parent: 3, StartUS: 25, EndUS: 45}, // grandchild: not the root's business
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 50, 2: 20, 3: 10, 4: 10, 5: 20} {
		if !near(self[id], want) {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("two-point quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "fps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 100.5, 99.5, 100.2}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"within bound", lower, steady, []float64{104, 105, 104.5, 105.5}, "ok"},
		{"lower-is-better regressed", lower, steady, []float64{120, 121, 119, 120.5}, "REGRESSED"},
		{"higher-is-better regressed", higher, steady, []float64{80, 81, 79, 80.5}, "REGRESSED"},
		{"higher-is-better improved", higher, steady, []float64{120, 121, 119, 120.5}, "ok"},
		{"spread wider than the bound", lower, steady, []float64{90, 130, 95, 125}, "unresolved"},
		{"wide but every run better", lower, []float64{100, 140, 105, 135}, []float64{50, 51, 52, 53}, "ok"},
		{"single runs", lower, []float64{100}, []float64{125}, "REGRESSED"},
	}
	for _, c := range cases {
		if _, _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestInputsComeFromTheSeedAlone(t *testing.T) {
	for _, wl := range workloads {
		if wl.inputs(7) != wl.inputs(7) {
			t.Errorf("%s: the same seed gave different inputs", wl.Name)
		}
		distinct := map[inputs]bool{}
		for s := int64(0); s < 10; s++ {
			in := wl.inputs(s)
			in.Seed = 0
			distinct[in] = true
			if in.Warm < gopSize || in.Warm%gopSize != 0 || in.Start < 0 {
				t.Errorf("%s seed %d: inputs %+v are not whole GOPs", wl.Name, s, in)
			}
		}
		if len(distinct) < 3 {
			t.Errorf("%s: ten seeds gave only %d distinct inputs", wl.Name, len(distinct))
		}
		if n := wl.timedFrames(10); n%gopSize != 0 || n < 2*gopSize {
			t.Errorf("%s: timed frames %d is not at least two whole GOPs", wl.Name, n)
		}
	}
}

func TestDisturbed(t *testing.T) {
	if disturbed([]float64{100, 101, 99, 107, 108, 106}, 0.01) {
		t.Error("halves 7% apart and 1% steal must not read as disturbed")
	}
	if !disturbed([]float64{100, 101, 99, 135, 136, 134}, 0) || !disturbed([]float64{135, 136, 134, 100, 101, 99}, 0) {
		t.Error("halves 35% apart must read as disturbed, whichever is slower")
	}
	if !disturbed([]float64{100, 100, 100, 100}, 0.20) {
		t.Error("20% steal must read as disturbed")
	}
	if disturbed([]float64{100, 130}, 0) {
		t.Error("too few rounds to judge must not read as disturbed")
	}
}

func TestPausesAreTakenOutOfTheWindows(t *testing.T) {
	// 1 warm-up GOP + 2 timed GOPs at 50 fps from epoch 1e9 µs; the
	// processes were stopped for 100 ms inside the first timed GOP.
	const gop, warm, epoch = 12, 12, int64(1_000_000_000)
	var present []float64
	now := 0.0
	for i := 0; i < warm+2*gop; i++ {
		now += 20_000
		if i == warm+5 {
			now += 100_000
		}
		present = append(present, now)
	}
	from := epoch + int64(present[warm+4]) + 1000
	pauses := []pauseSpan{{from, from + 100_000}}
	if got := gopWindowFPS(present, warm, gop, epoch, pauses); !near(got, 50) {
		t.Errorf("fps = %v, want 50 with the pause taken out", got)
	}
	if got := pausedUS(pauses, float64(from+40_000), float64(from+500_000)); !near(got, 60_000) {
		t.Errorf("paused share of a window that starts mid-pause = %v, want 60000", got)
	}
}

func TestSpeedsGoByTheRoundsOfEachStretch(t *testing.T) {
	// Three slow rounds during set-up, three at the reference speed after it.
	p := &pass{shownUS: 4_000_000}
	for i, v := range []float64{2 * calibRefMs, 2 * calibRefMs, 2 * calibRefMs, calibRefMs, calibRefMs, calibRefMs} {
		p.CalibMs = append(p.CalibMs, v)
		p.Pauses = append(p.Pauses, pauseSpan{FromUS: int64(i+1) * 1_000_000})
	}
	if setup, timed, ok := p.speeds(); !ok || !near(setup, 2) || !near(timed, 1) {
		t.Errorf("speeds = %v, %v, %v; want 2, 1, true", setup, timed, ok)
	}
	// A short set-up has too few rounds of its own and goes by the whole pass's.
	p.shownUS = 1_500_000
	if setup, timed, ok := p.speeds(); !ok || !near(setup, 1.5) || !near(timed, 1) {
		t.Errorf("short set-up: speeds = %v, %v, %v; want 1.5, 1, true", setup, timed, ok)
	}
	p.CalibMs, p.Pauses = p.CalibMs[:2], p.Pauses[:2]
	if setup, timed, ok := p.speeds(); ok || setup != 1 || timed != 1 {
		t.Errorf("two rounds: speeds = %v, %v, %v; want 1, 1, false", setup, timed, ok)
	}
}
