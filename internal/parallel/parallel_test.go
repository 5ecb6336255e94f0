package parallel

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 63, 64, 65, 1000, 4096} {
		hits := make([]int32, n)
		For(n, func(lo, hi int) {
			if lo < 0 || hi > n || lo > hi {
				t.Errorf("n=%d: bad range [%d,%d)", n, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestForNested(t *testing.T) {
	// Nested For must not deadlock even when the outer level saturates the
	// pool: callers always execute their own chunks.
	var total atomic.Int64
	For(16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(100, func(l, h int) {
				total.Add(int64(h - l))
			})
		}
	})
	if got := total.Load(); got != 1600 {
		t.Fatalf("nested For covered %d elements, want 1600", got)
	}
}

func TestSumDeterministicAndOrderFixed(t *testing.T) {
	// A sum of values spanning many magnitudes is sensitive to association
	// order; repeated parallel runs must agree bit-for-bit.
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = rng.NormFloat64() * float64(int64(1)<<uint(i%40))
	}
	sum := func() float64 {
		return Sum(len(vals), func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			return s
		})
	}
	want := sum()
	for r := 0; r < 20; r++ {
		if got := sum(); got != want {
			t.Fatalf("run %d: sum %v != %v", r, got, want)
		}
	}
	// And the value equals the fixed chunk-grid association computed
	// sequentially by hand.
	nc := chunkCount(len(vals))
	ref := 0.0
	for c := 0; c < nc; c++ {
		part := 0.0
		for i := c * len(vals) / nc; i < (c+1)*len(vals)/nc; i++ {
			part += vals[i]
		}
		ref += part
	}
	if want != ref {
		t.Fatalf("parallel sum %v != sequential chunk-grid sum %v", want, ref)
	}
}

func TestSumVec(t *testing.T) {
	got := SumVecInto(make([]float64, 2), 1000, 2, func(lo, hi int, acc []float64) {
		for i := lo; i < hi; i++ {
			acc[0] += float64(i)
			acc[1] += 1
		}
	})
	if got[0] != 999*1000/2 || got[1] != 1000 {
		t.Fatalf("SumVecInto = %v", got)
	}
	if got := SumVecInto([]float64{7, 7, 7}, 0, 3, nil); len(got) != 3 || got[0] != 0 {
		t.Fatalf("empty SumVecInto = %v", got)
	}
}

func TestSumAgreesAcrossGOMAXPROCS(t *testing.T) {
	vals := make([]float64, 5000)
	rng := rand.New(rand.NewSource(3))
	for i := range vals {
		vals[i] = rng.Float64()*2 - 1
	}
	sum := func() float64 {
		return Sum(len(vals), func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			return s
		})
	}
	prev := runtime.GOMAXPROCS(1)
	one := sum()
	runtime.GOMAXPROCS(prev)
	many := sum()
	if one != many {
		t.Fatalf("GOMAXPROCS=1 sum %v != GOMAXPROCS=%d sum %v", one, prev, many)
	}
}

func TestWorkers(t *testing.T) {
	if got := Default().size; got != runtime.NumCPU() {
		t.Fatalf("default scheduler has %d workers, want NumCPU = %d", got, runtime.NumCPU())
	}
}

func TestForWithCoversRangeAndRecyclesScratch(t *testing.T) {
	allocs := atomic.Int32{}
	scratch := NewScratch(func() []float64 {
		allocs.Add(1)
		return make([]float64, 8)
	})
	for rep := 0; rep < 50; rep++ {
		n := 4096
		hits := make([]int32, n)
		ForWith(n, scratch, func(lo, hi int, s []float64) {
			if len(s) != 8 {
				t.Errorf("scratch length %d", len(s))
			}
			s[0] = float64(lo) // dirty the scratch on purpose
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("rep %d: index %d visited %d times", rep, i, h)
			}
		}
	}
	// At most one scratch per worker can ever be live simultaneously, and
	// scratches are reused across the 50 repetitions.
	if got, w := int(allocs.Load()), Default().size; got > w {
		t.Errorf("allocated %d scratches for %d workers", got, w)
	}
}

func TestForWithZeroAndOne(t *testing.T) {
	scratch := NewScratch(func() int { return 42 })
	ForWith(0, scratch, func(lo, hi int, s int) {
		t.Error("callback ran for n=0")
	})
	ran := false
	ForWith(1, scratch, func(lo, hi int, s int) {
		ran = true
		if lo != 0 || hi != 1 || s != 42 {
			t.Errorf("lo=%d hi=%d s=%d", lo, hi, s)
		}
	})
	if !ran {
		t.Error("callback did not run for n=1")
	}
}

func TestSumVecIntoOverwritesDirtyTotal(t *testing.T) {
	total := []float64{99, -99}
	got := SumVecInto(total, 1000, 2, func(lo, hi int, acc []float64) {
		for i := lo; i < hi; i++ {
			acc[0] += float64(i)
			acc[1] += 1
		}
	})
	if &got[0] != &total[0] {
		t.Fatal("SumVecInto did not write into the provided buffer")
	}
	if got[0] != 999*1000/2 || got[1] != 1000 {
		t.Fatalf("SumVecInto = %v", got)
	}
	if got := SumVecInto([]float64{5, 5, 5}, 0, 3, nil); got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("empty SumVecInto left dirty values: %v", got)
	}
}

func TestSumSteadyStateAllocs(t *testing.T) {
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = float64(i)
	}
	// Warm the parts stack.
	Sum(len(vals), func(lo, hi int) float64 { return 0 })
	allocs := testing.AllocsPerRun(50, func() {
		Sum(len(vals), func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			return s
		})
	})
	// One allocation per call is tolerated for the closure/job header; the
	// parts buffer itself must be recycled.
	if allocs > 4 {
		t.Errorf("Sum allocates %.1f objects per call in steady state", allocs)
	}
}

// TestForSubmissionAllocFree pins job submission at zero allocations: the
// header is recycled per client, For's callback rides in the header without
// a wrapper closure and ForWith's generic body is pooled on its Scratch.
// (A callback that captures variables is still the caller's own allocation.)
// A multi-worker scheduler is used so the job path, not the single-CPU
// inline shortcut, is what is measured.
func TestForSubmissionAllocFree(t *testing.T) {
	s := NewScheduler(2)
	c := s.NewClient(ClientConfig{Name: "allocs"})
	scratch := NewScratch(func() *int { return new(int) })
	body := func(lo, hi int) {}
	with := func(lo, hi int, _ *int) {}
	c.For(64, body)
	ForWithOn(c, 64, scratch, with)
	if a := testing.AllocsPerRun(100, func() { c.For(64, body) }); a != 0 {
		t.Errorf("Client.For allocates %.1f objects per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { ForWithOn(c, 64, scratch, with) }); a != 0 {
		t.Errorf("ForWithOn allocates %.1f objects per call, want 0", a)
	}
}

// TestJobHeaderReuseUnderContention hammers one client from several
// goroutines with tiny jobs, so workers routinely lose the race for a job's
// last chunk while the submitter is already re-arming a header: every chunk
// of every job must still run exactly once (run under -race).
func TestJobHeaderReuseUnderContention(t *testing.T) {
	s := NewScheduler(4)
	c := s.NewClient(ClientConfig{Name: "reuse"})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 2000; it++ {
				n := 2 + (it+g)%7
				var hits [8]int32
				c.For(n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i := 0; i < n; i++ {
					if hits[i] != 1 {
						t.Errorf("n=%d: index %d visited %d times", n, i, hits[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
