// Package bufpool provides the size-bucketed buffer pools behind the frame
// loop's destination-passing APIs. The pipeline allocates the same handful
// of buffer shapes — pixel planes, float tensors, residual planes, coded
// bitstreams — once per frame per stage, so at 60 FPS the garbage collector
// is fed megabytes per second of short-lived garbage whose sizes never
// change. A Pool recycles those buffers across GOP iterations instead.
//
// Ownership rules (see DESIGN.md §10):
//
//   - Get* returns a buffer with the requested length and UNSPECIFIED
//     contents. Callers must fully overwrite it (destination-passing style)
//     or clear it explicitly. In -race builds (and with the bufpool_debug
//     build tag) returned buffers are poisoned so a stale reader shows up
//     as corrupted data instead of a silent heisenbug.
//   - Put* hands the buffer back. The caller must not retain any alias to
//     it (including sub-slices and frame.Image views) past the Put.
//   - A nil *Pool is fully functional: Get* falls back to plain make and
//     Put* is a no-op, so every Into-style API can thread an optional pool
//     without branching.
//
// All methods are safe for concurrent use; the pipeline's stage goroutines
// share one pool per session.
package bufpool

import (
	"math"
	"math/bits"
	"sync"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/telemetry"
)

const (
	// minClass and maxClass bound the pooled size classes (element counts,
	// powers of two). Buffers outside the range are allocated and dropped
	// normally — pooling 16-byte slices or one-off gigabuffers only adds
	// bookkeeping.
	minClassBits = 6  // 64 elements
	maxClassBits = 26 // 64 Mi elements
	// maxPerClass caps each free list so a burst (e.g. a KeepFrames run)
	// cannot pin unbounded memory in the pool.
	maxPerClass = 16
)

// classFor returns the size-class index for n elements, or -1 when n is
// outside the pooled range. Class c holds buffers of exactly 1<<c elements.
func classFor(n int) int {
	if n <= 0 {
		return -1
	}
	c := bits.Len(uint(n - 1))
	if c < minClassBits {
		c = minClassBits
	}
	if c > maxClassBits {
		return -1
	}
	return c
}

// bucketSet is the per-element-type free lists of a Pool. The zero value is
// ready to use.
type bucketSet[T any] struct {
	free [maxClassBits + 1][][]T
}

// get pops a pooled buffer of length n, or returns nil when the class is
// empty or unpooled.
func (b *bucketSet[T]) get(n int) []T {
	c := classFor(n)
	if c < 0 {
		return nil
	}
	fl := b.free[c]
	if len(fl) == 0 {
		return nil
	}
	s := fl[len(fl)-1]
	fl[len(fl)-1] = nil
	b.free[c] = fl[:len(fl)-1]
	return s[:n]
}

// put stores s back if it carries an exact class capacity with room left,
// reporting whether it was retained.
func (b *bucketSet[T]) put(s []T) bool {
	c := classFor(cap(s))
	if c < 0 || cap(s) != 1<<c {
		return false
	}
	if len(b.free[c]) >= maxPerClass {
		return false
	}
	b.free[c] = append(b.free[c], s[:cap(s)])
	return true
}

// Pool is a set of size-bucketed free lists for the buffer types of the
// frame loop, plus header free lists for frame.Image / frame.DepthMap
// checkout. See the package comment for the ownership contract.
type Pool struct {
	mu     sync.Mutex
	bytes  bucketSet[uint8]
	f32    bucketSet[float32]
	f64    bucketSet[float64]
	i16    bucketSet[int16]
	images []*frame.Image
	depths []*frame.DepthMap

	// Telemetry handles; all nil-safe no-ops until Instrument is called.
	hits     *telemetry.Counter
	misses   *telemetry.Counter
	returns  *telemetry.Counter
	discards *telemetry.Counter
	inFlight *telemetry.Gauge
}

// New returns an empty pool.
func New() *Pool { return &Pool{} }

// Instrument wires the pool's counters into reg under
// <prefix>_bufpool_*: checkout hits and misses, returns accepted, buffers
// discarded (over-full class or unpooled size) and bytes currently checked
// out. It returns p for chaining; a nil pool or registry is a no-op.
func (p *Pool) Instrument(reg *telemetry.Registry, prefix string) *Pool {
	if p == nil || reg == nil {
		return p
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hits = reg.Counter(prefix + "_bufpool_hits_total")
	p.misses = reg.Counter(prefix + "_bufpool_misses_total")
	p.returns = reg.Counter(prefix + "_bufpool_returns_total")
	p.discards = reg.Counter(prefix + "_bufpool_discards_total")
	p.inFlight = reg.Gauge(prefix + "_bufpool_bytes_in_flight")
	return p
}

// getSlice is the generic checkout path shared by the typed Get methods.
func getSlice[T any](p *Pool, b *bucketSet[T], n, elemSize int) []T {
	if p == nil {
		return make([]T, n)
	}
	p.mu.Lock()
	s := b.get(n)
	hits, misses, inFlight := p.hits, p.misses, p.inFlight
	p.mu.Unlock()
	inFlight.Add(int64(n * elemSize))
	if s != nil {
		hits.Inc()
		return s
	}
	misses.Inc()
	c := classFor(n)
	if c < 0 {
		return make([]T, n)
	}
	return make([]T, n, 1<<c)
}

// putSlice is the generic return path shared by the typed Put methods.
func putSlice[T any](p *Pool, b *bucketSet[T], s []T, elemSize int, poisonFn func([]T)) {
	if p == nil || s == nil {
		return
	}
	if poisonEnabled && poisonFn != nil {
		poisonFn(s[:cap(s)])
	}
	p.mu.Lock()
	kept := b.put(s)
	returns, discards, inFlight := p.returns, p.discards, p.inFlight
	p.mu.Unlock()
	inFlight.Add(-int64(len(s) * elemSize))
	if kept {
		returns.Inc()
	} else {
		discards.Inc()
	}
}

// Bytes checks out a []uint8 of length n with unspecified contents.
func (p *Pool) Bytes(n int) []uint8 { return getSlice(p, poolBytes(p), n, 1) }

// PutBytes returns a buffer obtained from Bytes.
func (p *Pool) PutBytes(s []uint8) { putSlice(p, poolBytes(p), s, 1, poisonBytes) }

// Float32s checks out a []float32 of length n with unspecified contents.
func (p *Pool) Float32s(n int) []float32 { return getSlice(p, poolF32(p), n, 4) }

// PutFloat32s returns a buffer obtained from Float32s.
func (p *Pool) PutFloat32s(s []float32) { putSlice(p, poolF32(p), s, 4, poisonFloat32s) }

// Float64s checks out a []float64 of length n with unspecified contents.
func (p *Pool) Float64s(n int) []float64 { return getSlice(p, poolF64(p), n, 8) }

// PutFloat64s returns a buffer obtained from Float64s.
func (p *Pool) PutFloat64s(s []float64) { putSlice(p, poolF64(p), s, 8, poisonFloat64s) }

// Int16s checks out a []int16 of length n with unspecified contents.
func (p *Pool) Int16s(n int) []int16 { return getSlice(p, poolI16(p), n, 2) }

// PutInt16s returns a buffer obtained from Int16s.
func (p *Pool) PutInt16s(s []int16) { putSlice(p, poolI16(p), s, 2, poisonInt16s) }

// The pool* accessors exist so the generic helpers can take a nil *Pool:
// field access on nil would panic, so they return nil bucket sets instead
// (which getSlice/putSlice never touch when p == nil).
func poolBytes(p *Pool) *bucketSet[uint8] {
	if p == nil {
		return nil
	}
	return &p.bytes
}
func poolF32(p *Pool) *bucketSet[float32] {
	if p == nil {
		return nil
	}
	return &p.f32
}
func poolF64(p *Pool) *bucketSet[float64] {
	if p == nil {
		return nil
	}
	return &p.f64
}
func poolI16(p *Pool) *bucketSet[int16] {
	if p == nil {
		return nil
	}
	return &p.i16
}

// Image checks out a w×h packed image: the three planes are slices of one
// pooled backing array (R first, then G, then B) with compact stride, so a
// checkout is a single buffer plus a recycled header. Pixel contents are
// unspecified — the caller must fully overwrite them.
func (p *Pool) Image(w, h int) *frame.Image {
	if p == nil {
		return frame.NewImagePacked(w, h)
	}
	n := w * h
	backing := p.Bytes(3 * n)
	p.mu.Lock()
	var im *frame.Image
	if k := len(p.images); k > 0 {
		im = p.images[k-1]
		p.images[k-1] = nil
		p.images = p.images[:k-1]
	}
	p.mu.Unlock()
	if im == nil {
		im = &frame.Image{}
	}
	im.W, im.H, im.Stride = w, h, w
	// Slice R with the backing's full capacity so PutImage can recover the
	// single allocation from the image alone.
	im.R = backing[0:n:cap(backing)]
	im.G = backing[n : 2*n : 2*n]
	im.B = backing[2*n : 3*n : 3*n]
	return im
}

// PutImage returns an image obtained from Image (or built by
// frame.NewImagePacked). Images whose planes do not form a single packed
// backing array — sub-image views, triple-allocation images — are rejected
// and left for the garbage collector. The caller must not retain im, its
// planes or any sub-view past the Put.
func (p *Pool) PutImage(im *frame.Image) {
	if p == nil || im == nil {
		return
	}
	n := im.W * im.H
	if n == 0 || im.Stride != im.W || len(im.R) < n || cap(im.R) < 3*n ||
		len(im.G) < n || len(im.B) < n {
		p.countDiscard()
		return
	}
	backing := im.R[: 3*n : cap(im.R)]
	// The planes must be the exact thirds of one backing array; comparing
	// element addresses verifies it without unsafe.
	if &im.G[0] != &backing[n] || &im.B[0] != &backing[2*n] {
		p.countDiscard()
		return
	}
	im.R, im.G, im.B = nil, nil, nil
	im.W, im.H, im.Stride = 0, 0, 0
	p.PutBytes(backing)
	p.mu.Lock()
	if len(p.images) < maxPerClass {
		p.images = append(p.images, im)
	}
	p.mu.Unlock()
}

// Depth checks out a w×h depth map with unspecified contents.
func (p *Pool) Depth(w, h int) *frame.DepthMap {
	if p == nil {
		return frame.NewDepthMap(w, h)
	}
	z := p.Float32s(w * h)
	p.mu.Lock()
	var d *frame.DepthMap
	if k := len(p.depths); k > 0 {
		d = p.depths[k-1]
		p.depths[k-1] = nil
		p.depths = p.depths[:k-1]
	}
	p.mu.Unlock()
	if d == nil {
		d = &frame.DepthMap{}
	}
	d.W, d.H, d.Stride, d.Z = w, h, w, z
	return d
}

// PutDepth returns a depth map obtained from Depth. Strided sub-map views
// are rejected.
func (p *Pool) PutDepth(d *frame.DepthMap) {
	if p == nil || d == nil {
		return
	}
	if d.W*d.H == 0 || d.Stride != d.W || len(d.Z) < d.W*d.H {
		p.countDiscard()
		return
	}
	z := d.Z
	d.Z = nil
	d.W, d.H, d.Stride = 0, 0, 0
	p.PutFloat32s(z)
	p.mu.Lock()
	if len(p.depths) < maxPerClass {
		p.depths = append(p.depths, d)
	}
	p.mu.Unlock()
}

func (p *Pool) countDiscard() {
	p.mu.Lock()
	d := p.discards
	p.mu.Unlock()
	d.Inc()
}

// Poison patterns: recognizable garbage, and NaN for floats so any
// arithmetic on a returned buffer propagates loudly.
func poisonBytes(s []uint8) {
	for i := range s {
		s[i] = 0xA5
	}
}

func poisonFloat32s(s []float32) {
	nan := float32(math.NaN())
	for i := range s {
		s[i] = nan
	}
}

func poisonFloat64s(s []float64) {
	nan := math.NaN()
	for i := range s {
		s[i] = nan
	}
}

func poisonInt16s(s []int16) {
	for i := range s {
		s[i] = -21931 // 0xAA55
	}
}
