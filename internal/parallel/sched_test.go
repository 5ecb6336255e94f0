package parallel

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestWFQSplitDeterministic drives the dispatch decision directly (no
// workers racing) and checks that two saturating clients are served
// alternately, 1:1, by the fair-queueing order.
func TestWFQSplitDeterministic(t *testing.T) {
	s := NewScheduler(1) // size 1: no worker goroutines to race the picks
	a := s.NewClient(ClientConfig{Name: "a"})
	b := s.NewClient(ClientConfig{Name: "b"})

	mkJob := func(c *Client) *job {
		j := &job{body: chunkFn(func(_, _, _ int) {}), n: maxChunks, c: c, chunks: maxChunks}
		s.enqueue(j)
		return j
	}
	ja, jb := mkJob(a), mkJob(b)
	_ = ja

	var order []byte
	s.mu.Lock()
	for i := 0; i < 50; i++ {
		j := s.pickLocked()
		if j == nil {
			t.Fatalf("pick %d: no runnable job", i)
		}
		order = append(order, j.c.name[0])
		// Simulate the claim without executing: advance cursor and vtime.
		j.next.Add(1)
		j.c.vtime.Add(1)
	}
	s.mu.Unlock()
	s.dequeue(ja)
	s.dequeue(jb)

	if want := strings.Repeat("ab", 25); string(order) != want {
		t.Fatalf("dispatch order %s, want %s", order, want)
	}
}

// TestPriorityPreemptsWFQ checks that a Normal client's chunks are
// dispatched before a Background client's regardless of virtual time.
func TestPriorityPreemptsWFQ(t *testing.T) {
	s := NewScheduler(1)
	bg := s.NewClient(ClientConfig{Name: "bg"})
	bg.SetPriority(Background)
	nm := s.NewClient(ClientConfig{Name: "nm"})
	// Give the high-priority client the worst (largest) virtual time so the
	// test distinguishes priority from fair-queueing order.
	nm.vtime.Store(1 << 40)

	var jobs []*job
	for _, c := range []*Client{bg, nm} {
		j := &job{body: chunkFn(func(_, _, _ int) {}), n: 4, c: c, chunks: 4}
		s.enqueue(j)
		jobs = append(jobs, j)
	}

	var order []string
	s.mu.Lock()
	for i := 0; i < 8; i++ {
		j := s.pickLocked()
		if j == nil {
			break
		}
		order = append(order, j.c.name)
		j.next.Add(1)
		j.c.vtime.Add(1)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		s.dequeue(j)
	}

	want := []string{
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
	const goroutines = 8
	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < goroutines; g++ {
		c := s.NewClient(ClientConfig{Name: "sess"})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				c.For(32, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						inner := c.sum(100, func(lo, hi int) float64 {
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
// contract under the scheduler: the same reduction through schedulers of
// 1, 3 and NumCPU workers, through Normal and Background clients, at
// different GOMAXPROCS, must produce byte-identical float64 results. Every
// kernel's reductions (metrics.Measure's among them) go through the
// package-level Sum and SumVecInto this compares against.
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
	vf := func(lo, hi int, acc []float64) {
		for i := lo; i < hi; i++ {
			acc[0] += float64(i)
			acc[1] += math.Sqrt(float64(i))
		}
	}
	want := SumVecInto(make([]float64, 2), n, 2, vf)

	for _, size := range []int{1, 3, 0} {
		s := NewScheduler(size)
		normal := s.NewClient(ClientConfig{Name: "normal"})
		bg := s.NewClient(ClientConfig{Name: "bg"})
		bg.SetPriority(Background)
		label := fmt.Sprintf("%d workers", s.size)
		check(label+", Normal client", normal.sum(n, f))
		check(label+", Background client", bg.sum(n, f))

		prev := runtime.GOMAXPROCS(1)
		one := normal.sum(n, f)
		runtime.GOMAXPROCS(prev)
		check(label+", GOMAXPROCS=1", one)

		got := bg.sumVecInto(make([]float64, 2), n, 2, vf)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("%s: SumVec[%d] bits differ: %x != %x", label, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestClientStatsAccounting checks that jobs, chunks, worker steals and
// queue-wait are attributed to the submitting client.
func TestClientStatsAccounting(t *testing.T) {
	s := NewScheduler(4)
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
	if st.Stolen == 0 && s.size > 1 {
		t.Logf("no chunks stolen on a %d-worker scheduler (legal but unusual)", s.size)
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

// TestSetPriorityLive: the priority is safe to flip while jobs run.
func TestSetPriorityLive(t *testing.T) {
	s := NewScheduler(0)
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
		c.SetPriority(Normal)
	}
	<-done
	if p := Priority(c.prio.Load()); p != Normal {
		t.Fatalf("Priority = %v, want Normal", p)
	}
}
