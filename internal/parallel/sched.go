package parallel

// Session-aware scheduling: the worker pool is owned by a Scheduler, and
// every submission is attributed to a Client carrying a weight and a
// priority. Workers dispatch chunks across concurrently submitted jobs by
// weighted fair queueing (per-client virtual time advances by 1/weight per
// chunk; the runnable job whose client is furthest behind goes first), with
// priority classes strictly above the WFQ order. The package-level
// For/ForWith/Sum/SumVec API is a facade over Default()'s default client,
// so kernels that don't care about attribution keep their signatures.
//
// Two properties of the original pool are preserved exactly:
//
//   - Determinism: the chunk grid depends only on n, and reductions combine
//     chunk partials in chunk order, so results are byte-identical no matter
//     which client, weight or worker count executed them.
//   - Deadlock freedom under nesting: the submitting goroutine always works
//     through its own job's chunks regardless of weight or priority, so a
//     saturated (or deprioritised) client degrades to inline sequential
//     execution instead of blocking. Weights and priorities only arbitrate
//     *worker help*, never progress.

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Priority ranks a client's jobs for worker attention. Within a priority
// class, chunks are dispatched by weighted fairness; across classes, the
// higher class always wins. The zero value is Normal, so zero-configured
// clients behave like the pre-scheduler pool.
type Priority int32

const (
	// Background clients receive worker help only when no Normal or
	// Interactive chunks are runnable — the shed ladder's demotion rung.
	Background Priority = -1
	// Normal is the default class.
	Normal Priority = 0
	// Interactive clients preempt Normal ones in the dispatch order.
	Interactive Priority = 1
)

// vUnit is the virtual-time advance of one chunk at weight 1. Large enough
// that integer division by any sane weight keeps resolution.
const vUnit = 1 << 16

// ClientConfig parameterises Scheduler.NewClient.
type ClientConfig struct {
	// Name labels the client in stats (it has no scheduling effect).
	Name string
	// Weight is the client's WFQ share (default 1): with two saturating
	// clients of weights 1 and 3, workers execute their chunks 1:3.
	Weight int
	// Priority is the client's dispatch class (default Normal).
	Priority Priority
}

// Client is a scheduling handle: submissions through it are dispatched by
// its weight/priority and accounted to it. A nil *Client is valid
// everywhere and means Default()'s default client, so kernels can thread an
// optional client without branching.
type Client struct {
	s    *Scheduler
	name string
	// labelCtx carries the client's pprof goroutine labels
	// (sched_client=name), pre-built at NewClient so the worker loop's
	// label switch is a single SetGoroutineLabels call with no per-chunk
	// allocation. Immutable after creation.
	labelCtx context.Context

	prio   atomic.Int32
	vdelta atomic.Int64 // vUnit / weight
	vtime  atomic.Int64 // WFQ virtual time, advanced per chunk

	jobs         atomic.Int64
	chunks       atomic.Int64
	stolen       atomic.Int64 // chunks executed by pool workers
	stolenWaitNs atomic.Int64 // Σ (claim time − submit time) over stolen chunks
	runNs        atomic.Int64 // Σ wall time of run() calls

	// free recycles this client's job headers, so a steady-state submission
	// allocates nothing. A stack rather than one slot: nested and concurrent
	// submissions through the same client each hold a header.
	free scratchStack[*job]
}

// ClientStats is a point-in-time copy of a client's accounting.
type ClientStats struct {
	// Jobs and Chunks count submissions and executed chunks.
	Jobs, Chunks int64
	// Stolen counts chunks executed by pool workers (the rest ran inline on
	// the submitting goroutine).
	Stolen int64
	// StolenWait is the queue-wait integral: for every stolen chunk, the
	// time from job submission to the chunk's claim. It grows superlinearly
	// under pool contention, which makes it the scheduler-level
	// backpressure signal.
	StolenWait time.Duration
	// Run is the total wall time spent inside this client's submissions.
	Run time.Duration
}

// chunkBody is what a job executes per chunk. The three submission forms
// implement it without a wrapper closure: func values are pointer-shaped,
// so storing a rangeFn or chunkFn in the interface allocates nothing, and
// ForWithOn's generic body is a pooled *withCall.
type chunkBody interface {
	runChunk(chunk, lo, hi int)
}

// rangeFn is For's callback as a chunkBody.
type rangeFn func(lo, hi int)

func (f rangeFn) runChunk(_, lo, hi int) { f(lo, hi) }

// chunkFn is the reductions' callback (it needs the chunk index).
type chunkFn func(chunk, lo, hi int)

func (f chunkFn) runChunk(chunk, lo, hi int) { f(chunk, lo, hi) }

// job is one For/Sum invocation: a chunk grid claimed via an atomic cursor
// by the submitter and however many workers the scheduler assigns. Headers
// are recycled through their client's free stack; refs counts the
// goroutines still holding the pointer (the submitter plus every worker
// that picked it), and the last one out returns it, so a worker that lost
// the race for the final chunk never touches a header already re-armed for
// the next submission.
type job struct {
	body   chunkBody
	n      int
	c      *Client
	t0     time.Time
	seq    uint64
	chunks int32
	next   atomic.Int32
	refs   atomic.Int32
	queued bool // guarded by the scheduler mutex
	wg     sync.WaitGroup
}

// getJob returns a header armed for body over [0, n), holding the
// submitter's reference.
func (c *Client) getJob(n int, body chunkBody, t0 time.Time) *job {
	j := c.free.get()
	j.body, j.n, j.t0, j.chunks = body, n, t0, int32(chunkCount(n))
	j.next.Store(0)
	j.refs.Store(1)
	j.wg.Add(int(j.chunks))
	return j
}

// release drops one reference; the last holder clears the callback (so the
// free stack pins no caller state) and recycles the header.
func (j *job) release() {
	if j.refs.Add(-1) != 0 {
		return
	}
	j.body = nil
	j.c.free.put(j)
}

// runChunk claims and executes one chunk, reporting whether one was left.
// stolen marks execution by a pool worker (for queue-wait accounting).
func (j *job) runChunk(stolen bool) bool {
	ci := int(j.next.Add(1) - 1)
	if ci >= int(j.chunks) {
		return false
	}
	if stolen {
		j.c.stolen.Add(1)
		j.c.stolenWaitNs.Add(int64(time.Since(j.t0)))
	}
	j.c.vtime.Add(j.c.vdelta.Load())
	nc := int(j.chunks)
	j.body.runChunk(ci, ci*j.n/nc, (ci+1)*j.n/nc)
	j.wg.Done()
	return true
}

// Scheduler owns a reusable worker pool and dispatches chunks across the
// jobs of its clients. One "worker slot" is always the submitting goroutine
// itself, so a scheduler of size w spawns w−1 goroutines.
type Scheduler struct {
	size int

	mu       sync.Mutex
	cond     *sync.Cond
	runnable []*job
	seq      uint64
	closed   bool

	defaultClient *Client
}

// NewScheduler builds a scheduler with the given worker count (including
// the submitter's slot); workers <= 0 picks NumCPU. A size-1 scheduler
// spawns no goroutines and runs everything inline.
func NewScheduler(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	s := &Scheduler{size: workers}
	s.cond = sync.NewCond(&s.mu)
	s.defaultClient = s.NewClient(ClientConfig{Name: "default"})
	for i := 0; i < workers-1; i++ {
		go s.worker()
	}
	return s
}

var (
	defaultOnce  sync.Once
	defaultSched *Scheduler
)

// Default returns the process-wide scheduler backing the package-level
// facade, creating it (at NumCPU size) on first use.
func Default() *Scheduler {
	defaultOnce.Do(func() { defaultSched = NewScheduler(0) })
	return defaultSched
}

// Workers returns the scheduler's worker count (including the caller's slot).
func (s *Scheduler) Workers() int { return s.size }

// NewClient returns a scheduling handle with the given weight and priority.
// Clients are lightweight and need no teardown; drop the handle when the
// session ends.
func (s *Scheduler) NewClient(cfg ClientConfig) *Client {
	c := &Client{s: s, name: cfg.Name}
	c.free.alloc = func() *job { return &job{c: c} }
	name := cfg.Name
	if name == "" {
		name = "default"
	}
	c.labelCtx = pprof.WithLabels(context.Background(), pprof.Labels("sched_client", name))
	w := cfg.Weight
	if w <= 0 {
		w = 1
	}
	c.vdelta.Store(int64(vUnit / w))
	c.prio.Store(int32(cfg.Priority))
	return c
}

// Close stops the scheduler's workers. Jobs already submitted still finish
// (their submitters drain them inline); later submissions run inline too.
// The default scheduler is never closed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// enqueue makes j visible to workers, applying the WFQ idle catch-up: a
// client returning from idle starts at the lagging edge of the active set
// instead of spending banked credit.
func (s *Scheduler) enqueue(j *job) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	minV, found := int64(0), false
	for _, q := range s.runnable {
		if v := q.c.vtime.Load(); !found || v < minV {
			minV, found = v, true
		}
	}
	if found && j.c.vtime.Load() < minV {
		j.c.vtime.Store(minV)
	}
	s.seq++
	j.seq = s.seq
	j.queued = true
	s.runnable = append(s.runnable, j)
	s.mu.Unlock()
	wake := int(j.chunks) - 1
	if wake > s.size-1 {
		wake = s.size - 1
	}
	for i := 0; i < wake; i++ {
		s.cond.Signal()
	}
}

// dequeue removes j from the runnable set if it is still there.
func (s *Scheduler) dequeue(j *job) {
	s.mu.Lock()
	if j.queued {
		j.queued = false
		for i, q := range s.runnable {
			if q == j {
				last := len(s.runnable) - 1
				s.runnable[i] = s.runnable[last]
				s.runnable[last] = nil
				s.runnable = s.runnable[:last]
				break
			}
		}
	}
	s.mu.Unlock()
}

// pickLocked returns the runnable job to serve next — highest priority
// class first, then lowest client virtual time, then submission order —
// pruning exhausted jobs as it scans. The job is returned with a reference
// taken for the caller (see job.release). Caller holds s.mu.
func (s *Scheduler) pickLocked() *job {
	var best *job
	for i := 0; i < len(s.runnable); {
		j := s.runnable[i]
		if int(j.next.Load()) >= int(j.chunks) {
			j.queued = false
			last := len(s.runnable) - 1
			s.runnable[i] = s.runnable[last]
			s.runnable[last] = nil
			s.runnable = s.runnable[:last]
			continue
		}
		if best == nil || dispatchBefore(j, best) {
			best = j
		}
		i++
	}
	if best != nil {
		best.refs.Add(1) // the picking worker's reference, dropped after its chunk
	}
	return best
}

// dispatchBefore reports whether a should be served before b.
func dispatchBefore(a, b *job) bool {
	pa, pb := a.c.prio.Load(), b.c.prio.Load()
	if pa != pb {
		return pa > pb
	}
	va, vb := a.c.vtime.Load(), b.c.vtime.Load()
	if va != vb {
		return va < vb
	}
	return a.seq < b.seq
}

// worker is the loop of one pool goroutine: pick the fairest runnable job,
// execute one chunk, re-pick — so a long job cannot monopolise a worker
// while a lighter client waits. Stolen chunks run under the owning
// client's pprof labels (sched_client=name), switched only when
// consecutive chunks belong to different clients; chunks run inline on
// the submitting goroutine inherit that goroutine's own labels (the
// engine's session/stage), which is the sharper attribution.
func (s *Scheduler) worker() {
	var labeled *Client
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := s.pickLocked()
		if j == nil {
			s.cond.Wait()
			continue
		}
		s.mu.Unlock()
		if c := j.c; c != labeled {
			pprof.SetGoroutineLabels(c.labelCtx)
			labeled = c
		}
		if !j.runChunk(true) {
			s.dequeue(j)
		}
		j.release()
		s.mu.Lock()
	}
}

// norm resolves the nil-client convention.
func (c *Client) norm() *Client {
	if c == nil {
		return Default().defaultClient
	}
	return c
}

// run executes body over the deterministic chunk grid of [0, n), always
// participating on the calling goroutine and accepting worker help as the
// scheduler assigns it.
func (c *Client) run(n int, body chunkBody) {
	t0 := time.Now()
	j := c.getJob(n, body, t0)
	c.jobs.Add(1)
	c.chunks.Add(int64(j.chunks))
	s := c.s
	offered := s.size > 1 && j.chunks > 1
	if offered {
		s.enqueue(j)
	}
	for j.runChunk(false) {
	}
	if offered {
		s.dequeue(j)
	}
	j.wg.Wait()
	j.release()
	c.runNs.Add(int64(time.Since(t0)))
}

// For is For attributed to c: fn runs over [0, n) split into the
// deterministic chunk grid, dispatched by c's weight and priority.
func (c *Client) For(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	c = c.norm()
	if c.s.size == 1 || n == 1 {
		c.jobs.Add(1)
		c.chunks.Add(1)
		fn(0, n)
		return
	}
	c.run(n, rangeFn(fn))
}

// Sum is Sum attributed to c; the reduction order is the chunk grid's, so
// the result is byte-identical whichever client or worker count ran it.
func (c *Client) Sum(n int, fn func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	c = c.norm()
	parts := getParts(chunkCount(n))
	c.run(n, chunkFn(func(ch, lo, hi int) { parts[ch] = fn(lo, hi) }))
	total := 0.0
	for _, p := range parts {
		total += p
	}
	putParts(parts)
	return total
}

// SumVec is SumVec attributed to c.
func (c *Client) SumVec(n, k int, fn func(lo, hi int, acc []float64)) []float64 {
	return c.SumVecInto(make([]float64, k), n, k, fn)
}

// SumVecInto is SumVecInto attributed to c.
func (c *Client) SumVecInto(total []float64, n, k int, fn func(lo, hi int, acc []float64)) []float64 {
	clear(total)
	if n <= 0 {
		return total
	}
	c = c.norm()
	nc := chunkCount(n)
	parts := getParts(nc * k)
	c.run(n, chunkFn(func(ch, lo, hi int) { fn(lo, hi, parts[ch*k:(ch+1)*k:(ch+1)*k]) }))
	for ch := 0; ch < nc; ch++ {
		for i := 0; i < k; i++ {
			total[i] += parts[ch*k+i]
		}
	}
	putParts(parts)
	return total
}

// ForWithOn is ForWith attributed to c. (A package function rather than a
// method because Go methods cannot be generic.)
func ForWithOn[S any](c *Client, n int, s *Scratch[S], fn func(lo, hi int, scratch S)) {
	if n <= 0 {
		return
	}
	c = c.norm()
	if c.s.size == 1 || n == 1 {
		c.jobs.Add(1)
		c.chunks.Add(1)
		v := s.stack.get()
		fn(0, n, v)
		s.stack.put(v)
		return
	}
	w := s.calls.get()
	w.fn = fn
	c.run(n, w)
	w.fn = nil
	s.calls.put(w)
}

// Name returns the client's label ("default" for the nil client).
func (c *Client) Name() string { return c.norm().name }

// Priority returns the client's current dispatch class.
func (c *Client) Priority() Priority { return Priority(c.norm().prio.Load()) }

// SetPriority reclassifies the client; in-flight jobs are re-ranked on the
// next dispatch decision. This is the shed ladder's demotion hook.
func (c *Client) SetPriority(p Priority) { c.norm().prio.Store(int32(p)) }

// SetWeight changes the client's WFQ share (values <= 0 clamp to 1).
func (c *Client) SetWeight(w int) {
	if w <= 0 {
		w = 1
	}
	c.norm().vdelta.Store(int64(vUnit / w))
}

// Weight returns the client's current WFQ share.
func (c *Client) Weight() int { return int(vUnit / c.norm().vdelta.Load()) }

// Stats returns a point-in-time copy of the client's accounting.
func (c *Client) Stats() ClientStats {
	c = c.norm()
	return ClientStats{
		Jobs:       c.jobs.Load(),
		Chunks:     c.chunks.Load(),
		Stolen:     c.stolen.Load(),
		StolenWait: time.Duration(c.stolenWaitNs.Load()),
		Run:        time.Duration(c.runNs.Load()),
	}
}
