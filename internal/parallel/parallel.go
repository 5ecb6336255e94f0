// Package parallel is the shared tile-worker layer for the per-pixel
// kernels of the pipeline (upscale, metrics, SR inference): a row-range For
// over a reusable goroutine pool, in the spirit of the renderer's internal
// parallelism, plus deterministic reductions.
//
// The pool is owned by a session-aware Scheduler (sched.go): every
// submission goes through a Client handle carrying a weight and a priority,
// and workers dispatch chunks across concurrently submitted jobs by
// weighted fair queueing. The package-level functions below are a facade
// over Default()'s default client, so call sites that don't care about
// attribution keep their signatures.
//
// Determinism contract: work is split into a chunk grid that depends only on
// the problem size n — never on GOMAXPROCS, pool occupancy, scheduling,
// client weights or priorities. Chunks may execute in any order on any
// worker, so plain For callbacks must write disjoint output ranges (true of
// row-parallel kernels). Reductions (Sum, SumVec) accumulate each chunk
// sequentially and combine the chunk partials in chunk order, so
// floating-point results are byte-identical across GOMAXPROCS settings and
// runs — the property the pipeline engine's determinism tests assert.
//
// The scheduler is deadlock-free under nesting: the submitting goroutine
// always works on its own job, so a saturated (or single-CPU) pool degrades
// to inline sequential execution rather than blocking.
package parallel

import "sync"

// maxChunks bounds the chunk grid. It is a fixed constant — not a function
// of GOMAXPROCS — so the grid (and therefore every reduction's association
// order) is the same no matter how many workers execute it. 64 chunks keep
// the grid finer than any plausible core count while costing only one
// atomic fetch-add per chunk.
const maxChunks = 64

// chunkCount returns the size of the deterministic chunk grid for n items.
func chunkCount(n int) int {
	return min(maxChunks, n)
}

// Workers returns the size of the default scheduler's worker pool
// (including the caller's slot).
func Workers() int {
	return Default().Workers()
}

// For runs fn over [0, n) split into contiguous chunks executed in
// parallel on the default client. fn must write only within its [lo, hi)
// range; chunks can run in any order. A single-CPU host (or n <= 1) runs
// inline with no goroutines.
func For(n int, fn func(lo, hi int)) {
	(*Client)(nil).For(n, fn)
}

// scratchStack recycles per-worker scratch values for ForWith across calls:
// a chunk pops a scratch (or makes one), runs, and pushes it back, so a
// kernel's steady state holds at most one live scratch per worker instead
// of allocating inside every tile closure. Entries never expire — the
// kernels that use ForWith run every frame, so the working set is hot.
type scratchStack[S any] struct {
	mu    sync.Mutex
	free  []S
	alloc func() S
}

func (s *scratchStack[S]) get() S {
	s.mu.Lock()
	if k := len(s.free); k > 0 {
		v := s.free[k-1]
		var zero S
		s.free[k-1] = zero
		s.free = s.free[:k-1]
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	return s.alloc()
}

func (s *scratchStack[S]) put(v S) {
	s.mu.Lock()
	s.free = append(s.free, v)
	s.mu.Unlock()
}

// Scratch is a reusable store of per-worker scratch values for ForWith.
// Create one per kernel call site (typically a package-level or per-object
// variable) with NewScratch; the same Scratch may back many ForWith calls,
// including concurrent ones.
type Scratch[S any] struct {
	stack scratchStack[S]
	// calls recycles ForWithOn's per-submission bodies, so the generic
	// form needs no closure either.
	calls scratchStack[*withCall[S]]
}

// withCall is one ForWithOn submission as a chunkBody: each chunk pops a
// scratch value, runs fn and pushes the value back.
type withCall[S any] struct {
	s  *Scratch[S]
	fn func(lo, hi int, scratch S)
}

func (w *withCall[S]) runChunk(_, lo, hi int) {
	v := w.s.stack.get()
	w.fn(lo, hi, v)
	w.s.stack.put(v)
}

// NewScratch returns a Scratch whose values are created by alloc. Values
// are handed to ForWith callbacks DIRTY — state left by a previous chunk —
// so callbacks must reset or fully overwrite whatever they read.
func NewScratch[S any](alloc func() S) *Scratch[S] {
	s := &Scratch[S]{stack: scratchStack[S]{alloc: alloc}}
	s.calls.alloc = func() *withCall[S] { return &withCall[S]{s: s} }
	return s
}

// ForWith is For with a per-chunk scratch value drawn from s: each chunk
// execution pops a scratch (allocating only when all are in use), passes it
// to fn alongside the row range, and pushes it back afterwards. The chunk
// grid — and therefore determinism — is identical to For's; the scratch
// value is the only addition. fn must treat the scratch as dirty.
func ForWith[S any](n int, s *Scratch[S], fn func(lo, hi int, scratch S)) {
	ForWithOn(nil, n, s, fn)
}

// partsStack recycles the per-chunk partial buffers of Sum/SumVec. Buffers
// are cleared on checkout (the reductions rely on zeroed accumulators) and
// grown to the largest requested size, so every reduction in the process
// shares a handful of max-size buffers — a mutex-guarded stack rather than
// sync.Pool because Put of a slice header through an interface allocates.
var partsStack = scratchStack[[]float64]{
	alloc: func() []float64 { return make([]float64, 0, maxChunks) },
}

func getParts(n int) []float64 {
	s := partsStack.get()
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func putParts(s []float64) {
	partsStack.put(s)
}

// Sum runs fn over the deterministic chunk grid of [0, n) and adds the
// chunk partials in chunk order, so the floating-point result is identical
// at any GOMAXPROCS. fn must accumulate its [lo, hi) range sequentially.
func Sum(n int, fn func(lo, hi int) float64) float64 {
	return (*Client)(nil).Sum(n, fn)
}

// SumVec is Sum for k simultaneous accumulators: fn adds its [lo, hi)
// range into acc (length k), and the per-chunk accumulators are combined
// component-wise in chunk order. The result slice is freshly allocated and
// owned by the caller; SumVecInto avoids even that allocation.
func SumVec(n, k int, fn func(lo, hi int, acc []float64)) []float64 {
	return (*Client)(nil).SumVec(n, k, fn)
}

// SumVecInto is SumVec writing the combined accumulators into total, which
// must have length k and is returned. total is fully overwritten, so it may
// be a dirty pooled buffer.
func SumVecInto(total []float64, n, k int, fn func(lo, hi int, acc []float64)) []float64 {
	return (*Client)(nil).SumVecInto(total, n, k, fn)
}
