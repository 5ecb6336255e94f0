package roi

import (
	"math"
	"sync"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/parallel"
)

// The shipped form of the detection pipeline. detectReference walks the
// paper's stages one full-frame plane at a time — nearness, foreground,
// weighted, layer-of, search map, summed-area table: six fresh planes in
// all, every frame. Here the same arithmetic runs in three passes over two
// kept planes (the layer index and the summed-area table, whose cells hold
// the weighted map until the last pass turns them into sums), and nearness
// is recomputed from the depth sample where it is needed instead of being
// stored:
//
//  1. scan — one strip-parallel read of the depth map that counts each
//     pixel into a half-bin (2·Bins of them, plus one for nearness exactly
//     1) and keeps each half-bin's least and greatest nearness. The
//     half-bins give the histogram, and because every threshold
//     histThreshold returns lies on a half-bin edge, the foreground's depth
//     range is the extremes of the half-bins at or above the threshold: no
//     second read of the plane.
//  2. weigh — one serial raster scan writing each pixel's weighted value and
//     layer and adding the value to its layer's sum.
//  3. sumTable — the summed-area table of the winning layer, two rows at a
//     time.
//
// Every floating-point operation of the reference is performed on the same
// operands, and every sum in the same order, so the rectangle is the same
// bit for bit (DESIGN.md §18, §30). Counts and extrema do not depend on
// grouping, so the scan runs in strips under the caller's scheduler client;
// the layer sums depend on their order, so weigh stays a raster scan. On
// amd64 the bulk of each pass runs on SSE2 (detect_amd64.s), where a run of
// samples inside one class's band (zBands) skips the class expression; the
// Go loops below are what those loops are tested against, what every other
// GOARCH runs, and what runs the few pixels the vector loops leave.
//
// The half-bin argument needs v·2·Bins exact, so Bins must be a power of
// two, and at least 2 so that the threshold is above the lowest half-bin;
// other histograms, and Config.Layers beyond what the int16 layer plane can
// index, take the reference pipeline.

// maxLayers is the largest Config.Layers the kept int16 layer plane can
// index.
const maxLayers = math.MaxInt16

// maxBins is the largest Config.Bins the scan keeps half-bins for: each
// strip holds 2·Bins+1 of them.
const maxBins = 1 << 12

// maxStrips bounds the strips a frame's rows are cut into for the scan: one
// partial result per strip.
const maxStrips = 16

// keptScratch bounds the working sets a detector holds on to; a session uses
// one at a time, and concurrent callers beyond the bound allocate their own.
const keptScratch = 2

// fastForm reports whether Detect runs the three passes for cfg rather than
// the reference pipeline.
func fastForm(cfg Config) bool {
	return cfg.Layers <= maxLayers && cfg.Bins >= 2 && cfg.Bins <= maxBins && cfg.Bins&(cfg.Bins-1) == 0
}

// scratchPool keeps the working sets of a detector's finished calls and the
// centre-bias table of the geometry it last saw.
type scratchPool struct {
	mu   sync.Mutex
	free []*scratch
	bias *biasTable // replaced when the geometry changes, never rewritten
}

// acquire returns a working set armed for one detection of depth under cfg.
func (p *scratchPool) acquire(cfg Config, depth *frame.DepthMap) *scratch {
	var s *scratch
	table := p.table(cfg, depth)
	p.mu.Lock()
	if k := len(p.free); k > 0 {
		s, p.free[k-1] = p.free[k-1], nil
		p.free = p.free[:k-1]
	}
	p.mu.Unlock()
	if s == nil {
		s = newScratch()
	}
	s.arm(cfg, depth, table)
	return s
}

// table returns the centre-bias table of depth's geometry under cfg.
func (p *scratchPool) table(cfg Config, depth *frame.DepthMap) *biasTable {
	bias := newCentreBias(cfg, depth.W, depth.H)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.bias == nil || p.bias.of != bias {
		p.bias = newBiasTable(bias, depth.W, depth.H)
	}
	return p.bias
}

func (p *scratchPool) release(s *scratch) {
	s.depth, s.bias = nil, nil // do not pin the caller's map or a replaced table
	p.mu.Lock()
	if len(p.free) < keptScratch {
		p.free = append(p.free, s)
	}
	p.mu.Unlock()
}

// scratch is the working set of one detection. Every plane is fully
// rewritten by the passes that read it, so a recycled set may be dirty.
type scratch struct {
	cfg   Config
	depth *frame.DepthMap
	bias  *biasTable

	strips    int
	slots     int       // 2·Bins+1, see slotOf
	scale     float64   // 2·Bins
	slotBands []float32 // the sample band of each slot, see zBands
	bandBins  int       // the Bins slotBands were found for
	counts    []uint32  // strips × slots partial counts
	ranges    []float64 // strips × 2·slots: each slot's least, then greatest, nearness
	hist      []float64 // Bins, the histogram histThreshold reads
	smooth    []float64 // Bins, histThreshold's scratch
	sums      []float64 // Layers
	layer     []int16   // per-pixel layer, -1 = background
	// sat's interior cell (x+1, y+1) holds pixel (x, y)'s weighted value
	// until sumTable turns the table into sums.
	sat        sat
	k          weighConsts
	layerBands []float32 // 2·(Layers+1): the sample band of the background, then of each layer

	// The scan as a func value, bound once: a method value made per call
	// would be one allocation per frame.
	scanFn func(lo, hi int)
}

func newScratch() *scratch {
	s := &scratch{}
	s.scanFn = s.scanPass
	return s
}

// arm points the set at one call's inputs, resizing what the geometry or the
// configuration has outgrown.
func (s *scratch) arm(cfg Config, depth *frame.DepthMap, bias *biasTable) {
	s.cfg, s.depth, s.bias = cfg, depth, bias
	W, H := depth.W, depth.H
	s.strips = min(H, maxStrips)
	s.slots, s.scale = 2*cfg.Bins+1, float64(2*cfg.Bins)
	if s.bandBins != cfg.Bins {
		s.slotBands = make([]float32, 2*s.slots)
		zBands(s.slotBands, func(z float32) int { return slotOf(z, s.scale) }, 0)
		s.bandBins = cfg.Bins
	}
	if cap(s.counts) < s.strips*s.slots {
		s.counts = make([]uint32, s.strips*s.slots)
	}
	s.counts = s.counts[:s.strips*s.slots]
	s.ranges = grow(s.ranges, 2*s.strips*s.slots)
	s.hist = grow(s.hist, cfg.Bins)
	s.smooth = grow(s.smooth, cfg.Bins)
	s.sums = grow(s.sums, cfg.Layers)
	if cap(s.layerBands) < 2*(cfg.Layers+1) {
		s.layerBands = make([]float32, 2*(cfg.Layers+1))
	}
	if cap(s.layer) < W*H {
		s.layer = make([]int16, W*H)
	}
	s.layer = s.layer[:W*H]
	s.sat = sat{w: W, h: H, s: grow(s.sat.s, (W+1)*(H+1))}
}

// biasTable is centreBias.at over the top-left quadrant of a frame, the
// mirror axes included: ⌈W/2⌉ × ⌈H/2⌉ values, a quarter of the frame's. The
// centre (cx, cy) lies on half-integers, so x − cx and (W−1−x) − cx are the
// same number with opposite signs — both exact — and at squares them: the
// weight at (x, y) is bit for bit the one at (min(x, W−1−x), min(y, H−1−y)).
// A table is filled once, by at itself, and only read afterwards.
type biasTable struct {
	of     centreBias
	stride int
	v      []float64
}

func newBiasTable(b centreBias, W, H int) *biasTable {
	t := &biasTable{of: b, stride: (W + 1) / 2}
	t.v = make([]float64, t.stride*((H+1)/2))
	for i := range t.v {
		t.v[i] = b.at(i%t.stride, i/t.stride)
	}
	return t
}

// row returns the weights of the left half of row y of an H-row frame; the
// weight at column x of a W-column row is row[min(x, W−1−x)].
func (t *biasTable) row(y, H int) []float64 {
	y = min(y, H-1-y)
	return t.v[y*t.stride : (y+1)*t.stride]
}

func grow(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// rows returns the pixel rows of strips [lo, hi).
func (s *scratch) rows(lo, hi int) (y0, y1 int) {
	return lo * s.depth.H / s.strips, hi * s.depth.H / s.strips
}

// zRow returns row y of the depth map.
func (s *scratch) zRow(y int) []float32 {
	d := s.depth
	return d.Z[y*d.Stride : y*d.Stride+d.W]
}

// detect runs the pipeline on the armed inputs.
func (s *scratch) detect(c *parallel.Client) frame.Rect {
	cfg, W, H := s.cfg, s.depth.W, s.depth.H
	bins, slots := cfg.Bins, s.slots

	// Pass 1 — half-bin counts and extremes, strip by strip. A strip the
	// scheduler folds into its neighbour's call keeps the empty result set
	// here.
	clear(s.counts)
	for k := 0; k < s.strips; k++ {
		r := s.ranges[2*k*slots : 2*(k+1)*slots]
		for i := range slots {
			r[i], r[slots+i] = math.Inf(1), math.Inf(-1)
		}
	}
	c.For(s.strips, s.scanFn)

	// Step ① — the nearness histogram and its valley. Half-bins 2b and 2b+1
	// are bin b (histBin puts nearness 0 and NaN in bin 0, as slotOf puts
	// them in half-bin 0) and the slot of nearness 1 is the top bin's
	// (histBin clamps it there). Counts are whole numbers, exact in any
	// grouping.
	clear(s.hist)
	for k := 0; k < s.strips; k++ {
		n := s.counts[k*slots : (k+1)*slots]
		for b := range s.hist {
			s.hist[b] += float64(n[2*b]) + float64(n[2*b+1])
		}
		s.hist[bins-1] += float64(n[2*bins])
	}
	thr := histThreshold(s.hist, s.smooth)

	// Step ③'s depth range of the foreground. A pixel is foreground when its
	// nearness is positive and at or above the threshold; its weighted value
	// (nearness plus a non-negative bias) is then positive too, which is the
	// test the reference applies. The threshold is j/(2·Bins) for a whole
	// j ≥ 2 (DESIGN.md §30), so v ≥ thr exactly when v's slot is j or above,
	// and those slots hold positive nearness only.
	j := thr * s.scale
	if j != math.Trunc(j) || j < 1 || j > s.scale {
		panic("roi: threshold off the half-bin grid")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for k := 0; k < s.strips; k++ {
		r := s.ranges[2*k*slots : 2*(k+1)*slots]
		for i := int(j); i <= 2*bins; i++ {
			lo, hi = min(lo, r[i]), max(hi, r[slots+i])
		}
	}
	// Nothing classified as foreground (e.g. a uniform depth map): the whole
	// weighted-nearness map becomes one layer.
	layers := float64(cfg.Layers)
	s.k = weighConsts{thr: thr, lo: lo, span: hi - lo, layers: layers, top: layers - 1, degenerate: math.IsInf(lo, 1)}

	// Steps ② to ④ — weighted value and layer of every pixel, the layer sums
	// in raster order, the winning layer and its summed-area table.
	s.weigh()
	sel := 0
	for l := 1; l < cfg.Layers; l++ {
		if s.sums[l] > s.sums[sel] {
			sel = l
		}
	}
	s.sumTable(int16(sel))

	// Algorithm 1 — coarse then fine window search on the processed map.
	coarse := searchBest(&s.sat, W, H, cfg.WindowW, cfg.WindowH,
		0, W-cfg.WindowW, 0, H-cfg.WindowH, cfg.CoarseStride)
	return searchBest(&s.sat, W, H, cfg.WindowW, cfg.WindowH,
		coarse.X-cfg.Boundary, coarse.X+cfg.Boundary,
		coarse.Y-cfg.Boundary, coarse.Y+cfg.Boundary, cfg.FineStride)
}

// scanPass counts the rows of strips [lo, hi) into strip lo's partial
// result.
func (s *scratch) scanPass(lo, hi int) {
	slots := s.slots
	n := s.counts[lo*slots : (lo+1)*slots]
	r := s.ranges[2*lo*slots : 2*(lo+1)*slots]
	for y, y1 := s.rows(lo, hi); y < y1; y++ {
		scanRow(s.zRow(y), s.scale, s.slotBands, n, r[:slots], r[slots:])
	}
}

// slotOf is the slot of depth sample z under scale = 2·Bins: ⌊v·scale⌋ for
// nearness v > 0 — half-bins 0 … 2·Bins−1, and 2·Bins for v = 1 — and 0
// for nearness 0 or NaN.
func slotOf(z float32, scale float64) int {
	if t := frame.NearnessOf(z) * scale; t > 0 {
		return int(t)
	}
	return 0
}

// scanRow counts z's pixels into their slots and widens each slot's
// [least, most] nearness to cover them. Slot 0's extremes are left
// unspecified (a NaN sample lands there): the threshold lies at least one
// half-bin up, so they are never read. bands holds each slot's band of
// depth samples (zBands), which lets the vector body count a run of samples
// in one slot without the expression.
func scanRow(z []float32, scale float64, bands []float32, n []uint32, least, most []float64) {
	k := 0
	if haveDetectBulk {
		k = len(z) &^ 7
	}
	if k > 0 {
		scanOcts(&z[0], k, &n[0], &least[0], &most[0], scale, &bands[0])
	}
	scanGo(z[k:], scale, n, least, most)
}

// scanGo is the portable form of scanRow.
func scanGo(z []float32, scale float64, n []uint32, least, most []float64) {
	least, most = least[:len(n)], most[:len(n)]
	for _, zz := range z {
		v, i := frame.NearnessOf(zz), slotOf(zz, scale)
		n[i]++
		least[i], most[i] = min(least[i], v), max(most[i], v)
	}
}

// Classes of depth samples. Nearness 1 − clamp(z) never increases with z,
// and every later step — the slot, the foreground test, the layer — is a
// rounded arithmetic operation or a comparison, each monotone, so a class
// of samples is one interval of the float32 number line. zBands finds each
// class's interval by bisection over float32 values in order, evaluating
// the class expression itself, so a sample lies in the band of the class
// the expression gives it, bit for bit. The vector bodies test a run of
// samples against the current class's band instead of evaluating the
// expression per sample; samples off the band, NaN among them, take the
// expression.

// zKey maps non-NaN float32 values to keys in their order (−0 just below
// +0); keyZ inverts it.
func zKey(z float32) uint32 {
	b := math.Float32bits(z)
	if b>>31 != 0 {
		return ^b
	}
	return b | 1<<31
}

func keyZ(k uint32) float32 {
	if k>>31 != 0 {
		return math.Float32frombits(k &^ (1 << 31))
	}
	return math.Float32frombits(^k)
}

// zBands fills bands[2i], bands[2i+1] with the least and greatest sample
// whose class is first+i, for a class function that does not increase with
// z; an empty class gets (+Inf, −Inf), which no sample lies between.
func zBands(bands []float32, class func(z float32) int, first int) {
	keyLo, keyHi := zKey(float32(math.Inf(-1))), zKey(float32(math.Inf(1)))
	// atMost is the least key whose class is at most c, or keyHi+1.
	atMost := func(c int) uint32 {
		lo, hi := keyLo, keyHi+1
		for lo < hi {
			mid := lo + (hi-lo)/2
			if class(keyZ(mid)) <= c {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	// Class c is the keys from atMost(c) up to atMost(c−1), exclusive.
	emptyBands(bands)
	end := atMost(first - 1)
	for i := 0; 2*i < len(bands); i++ {
		start := atMost(first + i)
		if start < end {
			bands[2*i], bands[2*i+1] = keyZ(start), keyZ(end-1)
		}
		end = start
	}
}

// emptyBands makes every band empty: (+Inf, −Inf).
func emptyBands(bands []float32) {
	for i := range bands {
		bands[i] = float32(math.Inf(1 - 2*(i&1)))
	}
}

// weighConsts are weigh's operands for one frame, in the order the SSE2
// body loads them.
type weighConsts struct {
	thr, lo, span float64
	layers, top   float64 // Config.Layers, and one less
	degenerate    bool    // no foreground: every pixel is layer 0
}

// layerOf is the layer of depth sample z, −1 for the background.
func (k *weighConsts) layerOf(z float32) int {
	v := frame.NearnessOf(z)
	switch {
	case k.degenerate:
		return 0
	case v >= k.thr && v > 0:
		if k.span <= 0 {
			return 0
		}
		// v ≥ lo for every foreground sample of the frame, so only the
		// upper clamp is the reference's; the lower one gives the samples
		// no frame holds a layer too, as the vector body's clamp does.
		l := int((v - k.lo) / k.span * k.layers)
		return min(max(l, 0), int(k.layers)-1)
	}
	return -1
}

// maxBandLayers bounds the layers weigh finds sample bands for; beyond it
// the vector body evaluates every sample.
const maxBandLayers = 64

// weigh writes the weighted value and the layer of every pixel and adds the
// weighted values up per layer, in raster order. A row's right half reads
// the bias table's row backwards.
func (s *scratch) weigh() {
	W, H := s.depth.W, s.depth.H
	half := (W + 1) / 2
	clear(s.sums)
	if s.k.vector() {
		bands := s.layerBands[:2*(s.cfg.Layers+1)]
		if s.cfg.Layers <= maxBandLayers {
			zBands(bands, s.k.layerOf, -1)
		} else {
			emptyBands(bands)
		}
	}
	for y := 0; y < H; y++ {
		cells := s.sat.s[(y+1)*(W+1)+1 : (y+2)*(W+1)]
		layer := s.layer[y*W : (y+1)*W]
		bias := s.bias.row(y, H)
		z := s.zRow(y)
		weighRow(z[:half], bias[:half], false, cells[:half], layer[:half], s.sums, &s.k, s.layerBands)
		weighRow(z[half:], bias[:W-half], true, cells[half:], layer[half:], s.sums, &s.k, s.layerBands)
	}
}

// vector reports whether weighRow runs the vector body under k: it needs a
// foreground with a depth span.
func (k *weighConsts) vector() bool { return haveDetectBulk && !k.degenerate && k.span > 0 }

// weighRow is weigh on the pixels z, whose weights are bias — in order, or
// reversed (pixel x's weight is bias[len(z)−1−x]). bands holds the sample
// band of the background, then of each layer (zBands from class −1).
func weighRow(z []float32, bias []float64, rev bool, cells []float64, layer []int16, sums []float64, k *weighConsts, bands []float32) {
	n := len(z)
	bias, cells, layer = bias[:n], cells[:n], layer[:n]
	m := 0
	if k.vector() {
		m = n &^ 3
	}
	if m > 0 {
		if rev {
			weighQuads(&z[0], &bias[n-2], &cells[0], &layer[0], &sums[0], k, m/4, -8, &bands[0])
		} else {
			weighQuads(&z[0], &bias[0], &cells[0], &layer[0], &sums[0], k, m/4, 8, &bands[0])
		}
	}
	if rev {
		weighGo(z[m:], bias[:n-m], true, cells[m:], layer[m:], sums, k)
	} else {
		weighGo(z[m:], bias[m:], false, cells[m:], layer[m:], sums, k)
	}
}

// weighGo is the portable form of weighRow.
func weighGo(z []float32, bias []float64, rev bool, cells []float64, layer []int16, sums []float64, k *weighConsts) {
	n := len(z)
	bias, cells, layer = bias[:n], cells[:n], layer[:n]
	for x, zz := range z {
		l := k.layerOf(zz)
		if l < 0 {
			cells[x], layer[x] = 0, -1
			continue
		}
		b := bias[x]
		if rev {
			b = bias[n-1-x]
		}
		w := frame.NearnessOf(zz) + b
		cells[x], layer[x] = w, int16(l)
		sums[l] += w
	}
}

// sumTable turns the table's cells into the summed-area table of layer sel's
// values (the reference's search map: zero elsewhere), as newSAT does: each
// cell becomes the cell above plus the running sum of its row.
func (s *scratch) sumTable(sel int16) {
	W, H, stride := s.depth.W, s.depth.H, s.depth.W+1
	t := s.sat.s
	clear(t[:stride])
	row := func(y int) []float64 { return t[y*stride+1 : (y+1)*stride] }
	y := 0
	for ; y+2 <= H; y += 2 {
		t[(y+1)*stride], t[(y+2)*stride] = 0, 0
		sumRows(row(y), row(y+1), row(y+2), s.layer[y*W:(y+1)*W], s.layer[(y+1)*W:(y+2)*W], sel)
	}
	if y < H {
		t[(y+1)*stride] = 0
		sumGo(row(y), row(y+1), s.layer[y*W:(y+1)*W], sel)
	}
}

// sumRows is sumGo on two consecutive rows: r0 over above with layers l0,
// then r1 over r0 with l1.
func sumRows(above, r0, r1 []float64, l0, l1 []int16, sel int16) {
	n := len(above)
	r0, r1, l0, l1 = r0[:n], r1[:n], l0[:n], l1[:n]
	if haveDetectBulk && n > 0 {
		sumPairs(&above[0], &r0[0], &r1[0], &l0[0], &l1[0], int(sel), n)
		return
	}
	sumGo(above, r0, l0, sel)
	sumGo(r0, r1, l1, sel)
}

// sumGo turns row's cells into summed-area sums over the row above: the
// running sum of the cells whose layer is sel, plus above.
func sumGo(above, row []float64, layer []int16, sel int16) {
	n := len(above)
	row, layer = row[:n], layer[:n]
	rowSum := 0.0
	for x, l := range layer {
		v := row[x]
		if l != sel {
			v = 0
		}
		rowSum += v
		row[x] = above[x] + rowSum
	}
}
