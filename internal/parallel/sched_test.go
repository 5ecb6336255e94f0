package parallel

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestWFQSplitDeterministic drives the dispatch decision directly (no
// workers racing) and checks that two saturating clients with weights 1
// and 4 are served 1:4 by the WFQ order.
func TestWFQSplitDeterministic(t *testing.T) {
	s := NewScheduler(1) // size 1: no worker goroutines to race the picks
	a := s.NewClient(ClientConfig{Name: "a", Weight: 1})
	b := s.NewClient(ClientConfig{Name: "b", Weight: 4})

	mkJob := func(c *Client) *job {
		j := &job{body: chunkFn(func(_, _, _ int) {}), n: maxChunks, c: c, chunks: maxChunks}
		s.enqueue(j)
		return j
	}
	ja, jb := mkJob(a), mkJob(b)
	_ = ja

	picks := map[string]int{}
	s.mu.Lock()
	for i := 0; i < 50; i++ {
		j := s.pickLocked()
		if j == nil {
			t.Fatalf("pick %d: no runnable job", i)
		}
		picks[j.c.name]++
		// Simulate the claim without executing: advance cursor and vtime.
		j.next.Add(1)
		j.c.vtime.Add(j.c.vdelta.Load())
	}
	s.mu.Unlock()
	s.dequeue(ja)
	s.dequeue(jb)

	if picks["a"] < 9 || picks["a"] > 11 {
		t.Fatalf("weight-1 client got %d/50 picks, want ~10 (weight-4 got %d)", picks["a"], picks["b"])
	}
}

// TestPriorityPreemptsWFQ checks that an Interactive client's chunks are
// dispatched before a Normal client's regardless of virtual time, and that
// Background yields to both.
func TestPriorityPreemptsWFQ(t *testing.T) {
	s := NewScheduler(1)
	bg := s.NewClient(ClientConfig{Name: "bg", Priority: Background})
	nm := s.NewClient(ClientConfig{Name: "nm"})
	ia := s.NewClient(ClientConfig{Name: "ia", Priority: Interactive})
	// Give the high-priority client the worst (largest) virtual time so the
	// test distinguishes priority from WFQ order.
	ia.vtime.Store(1 << 40)
	nm.vtime.Store(1 << 20)

	var jobs []*job
	for _, c := range []*Client{bg, nm, ia} {
		j := &job{body: chunkFn(func(_, _, _ int) {}), n: 4, c: c, chunks: 4}
		s.enqueue(j)
		jobs = append(jobs, j)
	}

	var order []string
	s.mu.Lock()
	for i := 0; i < 12; i++ {
		j := s.pickLocked()
		if j == nil {
			break
		}
		order = append(order, j.c.name)
		j.next.Add(1)
		j.c.vtime.Add(j.c.vdelta.Load())
	}
	s.mu.Unlock()
	for _, j := range jobs {
		s.dequeue(j)
	}

	want := []string{
		"ia", "ia", "ia", "ia",
		"nm", "nm", "nm", "nm",
		"bg", "bg", "bg", "bg",
	}
	if len(order) != len(want) {
		t.Fatalf("dispatched %d chunks, want %d (%v)", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
}

// TestNestedSubmissionFromFullPool floods a tiny scheduler with more
// concurrent submitters than workers, each job nesting an inner reduction —
// the inline-execution guarantee must keep every submission progressing.
func TestNestedSubmissionFromFullPool(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	const goroutines = 8
	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < goroutines; g++ {
		c := s.NewClient(ClientConfig{Name: "sess", Weight: 1 + g%3})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				c.For(32, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						inner := c.Sum(100, func(lo, hi int) float64 {
							t := 0.0
							for k := lo; k < hi; k++ {
								t += float64(k)
							}
							return t
						})
						if inner != 4950 {
							bad.Add(1)
						}
					}
				})
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d nested reductions returned wrong totals", n)
	}
}

// TestReductionBitsIdenticalAcrossClientsAndGOMAXPROCS is the determinism
// contract under the scheduler: the same reduction through differently
// weighted and prioritised clients, at different GOMAXPROCS, must produce
// byte-identical float64 results.
func TestReductionBitsIdenticalAcrossClientsAndGOMAXPROCS(t *testing.T) {
	const n = 10007
	f := func(lo, hi int) float64 {
		t := 0.0
		for i := lo; i < hi; i++ {
			t += math.Sin(float64(i)) * 1e-3
		}
		return t
	}
	ref := Sum(n, f)
	refBits := math.Float64bits(ref)

	check := func(label string, got float64) {
		t.Helper()
		if math.Float64bits(got) != refBits {
			t.Fatalf("%s: sum bits %x != reference bits %x", label, math.Float64bits(got), refBits)
		}
	}

	s := NewScheduler(0)
	defer s.Close()
	heavy := s.NewClient(ClientConfig{Name: "heavy", Weight: 7, Priority: Interactive})
	light := s.NewClient(ClientConfig{Name: "light", Weight: 1, Priority: Background})
	check("heavy client", heavy.Sum(n, f))
	check("light client", light.Sum(n, f))

	prev := runtime.GOMAXPROCS(1)
	one := heavy.Sum(n, f)
	runtime.GOMAXPROCS(prev)
	check("GOMAXPROCS=1", one)

	// SumVecInto through a client must match the package-level facade.
	vf := func(lo, hi int, acc []float64) {
		for i := lo; i < hi; i++ {
			acc[0] += float64(i)
			acc[1] += math.Sqrt(float64(i))
		}
	}
	want := SumVec(n, 2, vf)
	got := light.SumVecInto(make([]float64, 2), n, 2, vf)
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("SumVec[%d] bits differ: %x != %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestClientStatsAccounting checks that jobs, chunks, worker steals and
// queue-wait are attributed to the submitting client.
func TestClientStatsAccounting(t *testing.T) {
	s := NewScheduler(4)
	defer s.Close()
	c := s.NewClient(ClientConfig{Name: "sess"})
	var work atomic.Int64
	for iter := 0; iter < 50; iter++ {
		c.For(64, func(lo, hi int) {
			t := int64(0)
			for i := lo; i < hi; i++ {
				for k := 0; k < 2000; k++ {
					t += int64(i ^ k)
				}
			}
			work.Add(t % 2)
		})
	}
	st := c.Stats()
	if st.Jobs != 50 {
		t.Fatalf("Jobs = %d, want 50", st.Jobs)
	}
	if st.Chunks != 50*64 {
		t.Fatalf("Chunks = %d, want %d", st.Chunks, 50*64)
	}
	if st.Run <= 0 {
		t.Fatalf("Run = %v, want > 0", st.Run)
	}
	if st.Stolen > 0 && st.StolenWait <= 0 {
		t.Fatalf("Stolen = %d but StolenWait = %v", st.Stolen, st.StolenWait)
	}
	if st.Stolen == 0 && s.Workers() > 1 {
		t.Logf("no chunks stolen on a %d-worker scheduler (legal but unusual)", s.Workers())
	}
}

// TestIdleCatchUpPreventsStarvation: a client idle while another runs must
// not bank virtual-time credit it can later spend to starve the active one.
func TestIdleCatchUpPreventsStarvation(t *testing.T) {
	s := NewScheduler(1)
	active := s.NewClient(ClientConfig{Name: "active"})
	idle := s.NewClient(ClientConfig{Name: "idle"})
	active.vtime.Store(1 << 30) // has been running a while

	ja := &job{body: chunkFn(func(_, _, _ int) {}), n: maxChunks, c: active, chunks: maxChunks}
	s.enqueue(ja)
	ji := &job{body: chunkFn(func(_, _, _ int) {}), n: maxChunks, c: idle, chunks: maxChunks}
	s.enqueue(ji)

	if got := idle.vtime.Load(); got != 1<<30 {
		t.Fatalf("idle client vtime = %d after catch-up, want %d", got, 1<<30)
	}
	s.dequeue(ja)
	s.dequeue(ji)
}

// TestClosedSchedulerRunsInline: after Close, submissions still complete
// (inline) with correct results.
func TestClosedSchedulerRunsInline(t *testing.T) {
	s := NewScheduler(4)
	c := s.NewClient(ClientConfig{Name: "sess"})
	s.Close()
	got := c.Sum(1000, func(lo, hi int) float64 {
		t := 0.0
		for i := lo; i < hi; i++ {
			t += float64(i)
		}
		return t
	})
	if got != 499500 {
		t.Fatalf("Sum on closed scheduler = %v, want 499500", got)
	}
	var covered atomic.Int64
	c.For(100, func(lo, hi int) { covered.Add(int64(hi - lo)) })
	if covered.Load() != 100 {
		t.Fatalf("For on closed scheduler covered %d, want 100", covered.Load())
	}
}

// TestSetPriorityAndWeightLive: knobs are safe to flip while jobs run.
func TestSetPriorityAndWeightLive(t *testing.T) {
	s := NewScheduler(0)
	defer s.Close()
	c := s.NewClient(ClientConfig{Name: "sess"})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			c.For(64, func(lo, hi int) {
				for k := lo; k < hi; k++ {
					_ = k * k
				}
			})
		}
	}()
	for i := 0; i < 100; i++ {
		c.SetPriority(Background)
		c.SetWeight(3)
		c.SetPriority(Normal)
		c.SetWeight(1)
	}
	<-done
	if c.Priority() != Normal {
		t.Fatalf("Priority = %v, want Normal", c.Priority())
	}
	if c.Weight() != 1 {
		t.Fatalf("Weight = %d, want 1", c.Weight())
	}
}
