package pipeline

import (
	"runtime"
	"testing"

	"gamestreamsr/internal/frametrace"
)

// measureEngineAllocs returns the marginal heap allocations and bytes per
// frame of a GameStream run: two runs of different lengths are measured and
// differenced, so per-run setup cost (encoder, channels, goroutines) cancels
// out and only the steady-state per-frame cost remains. mutate, when
// non-nil, adjusts the config before each run (instrumentation variants).
func measureEngineAllocs(t testing.TB, short, long int, mutate func(*Config)) (allocs, bytes float64) {
	t.Helper()
	run := func(n int) (float64, float64) {
		cfg := testConfig(t)
		if mutate != nil {
			mutate(&cfg)
		}
		g, err := NewGameStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := g.Run(n); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
	}
	// Warm shared process-level state (parallel worker pool, weight caches).
	run(short)
	const reps = 3
	bestA, bestB := 0.0, 0.0
	for i := 0; i < reps; i++ {
		la, lb := run(long)
		sa, sb := run(short)
		da := (la - sa) / float64(long-short)
		db := (lb - sb) / float64(long-short)
		if i == 0 || da < bestA {
			bestA, bestB = da, db
		}
	}
	return bestA, bestB
}

// TestEngineSteadyStateAllocs is the pooled frame loop's allocation
// regression gate. The pre-pooling baseline (PR 2) was 971.8 allocs/frame
// (10.45 MB/frame) at this geometry — recorded in BENCH_alloc.json — and the
// pooled engine must stay within 10% of what it needs today: 82.8
// allocs/frame (6–11 KB/frame) since the renderer keeps its acceleration
// state in the Output it renders into (it was 160.8 when every render, two a
// frame here, rebuilt and sorted a BVH on the heap).
func TestEngineSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	perFrame, bytesPerFrame := measureEngineAllocs(t, 6, 18, nil)
	t.Logf("engine steady-state: %.1f allocs/frame, %.0f bytes/frame", perFrame, bytesPerFrame)
	const budget = 91 // 82.8 + 10%, see BENCH_alloc.json
	if perFrame > budget {
		t.Errorf("engine allocates %.1f objects/frame in steady state, budget %d", perFrame, budget)
	}
}

// TestEngineSteadyStateAllocsWithFlight extends the gate to the flight
// recorder: with a recorder attached the engine must meet the same budget
// AND add no per-frame allocations over the unrecorded engine — the ring is
// pre-allocated, spans live in fixed arrays and deadline accounting reuses
// a scratch buffer. (frametrace's TestRecorderHotPathAllocs pins the
// recorder-only path to exactly zero; this is the whole-engine check, with
// sub-allocation tolerance for measurement noise.)
func TestEngineSteadyStateAllocsWithFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	rec := frametrace.New(frametrace.Config{})
	withFlight, bytesPerFrame := measureEngineAllocs(t, 6, 18, func(cfg *Config) { cfg.Flight = rec })
	plain, _ := measureEngineAllocs(t, 6, 18, nil)
	t.Logf("flight attached: %.1f allocs/frame (%.0f bytes/frame), plain: %.1f", withFlight, bytesPerFrame, plain)
	const budget = 91 // same gate as TestEngineSteadyStateAllocs
	if withFlight > budget {
		t.Errorf("flight-attached engine allocates %.1f objects/frame, budget %d", withFlight, budget)
	}
	if delta := withFlight - plain; delta >= 1 {
		t.Errorf("flight recorder adds %.1f allocs/frame, want 0", delta)
	}
}
