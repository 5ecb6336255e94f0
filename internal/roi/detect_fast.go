package roi

import (
	"math"

	"gamestreamsr/internal/frame"
)

// The shipped form of the detection pipeline. detectReference walks the
// paper's stages one full-frame plane at a time — nearness, foreground,
// weighted, layer-of, search map, summed-area table: six fresh planes in
// all, every frame. Here the same arithmetic runs in three serial passes
// over two kept planes (the layer index and the summed-area table, whose
// cells hold the weighted map until the last pass turns them into sums),
// and nearness is recomputed from the depth sample where it is needed
// instead of being stored:
//
//  1. scan — one read of the depth map, row by row, that counts each pixel
//     into a half-bin (2·histBins of them, plus one for nearness exactly 1)
//     and keeps each half-bin's least and greatest nearness. The half-bins
//     give the histogram, and because every threshold histThreshold returns
//     lies on a half-bin edge, the foreground's depth range is the extremes
//     of the half-bins at or above the threshold: no second read of the
//     plane.
//  2. weigh — one raster scan writing each pixel's weighted value and layer
//     and adding the value to its layer's sum.
//  3. sumTable — the summed-area table of the winning layer, two rows at a
//     time.
//
// Every floating-point operation of the reference is performed on the same
// operands, and every sum in the same order, so the rectangle is the same
// bit for bit (DESIGN.md §18, §30). On amd64 the bulk of each pass runs on
// SSE2 (detect_amd64.s), where a run of samples inside one class's band
// (zBands) skips the class expression; the Go loops below are what those
// loops are tested against, what every other GOARCH runs, and what runs the
// few pixels the vector loops leave.
//
// The half-bin argument needs v·2·histBins exact, which it is for 64 bins, a
// power of two; and with more than one bin the threshold lies above the
// lowest half-bin.

const (
	scale = 2 * histBins   // half-bins per unit of nearness
	slots = 2*histBins + 1 // the half-bins and the slot of nearness 1, see slotOf
)

// slotBands holds each slot's band of depth samples (zBands): fixed by the
// constants, so found once.
var slotBands = func() (b [2 * slots]float32) {
	zBands(b[:], slotOf, 0)
	return b
}()

// scratch is a detector's working set. Every plane is fully rewritten by
// the passes that read it, so it arrives dirty from the last call.
type scratch struct {
	depth *frame.DepthMap
	bias  *biasTable // replaced when the geometry changes, never rewritten

	counts       [slots]uint32
	least, most  [slots]float64 // each slot's least and greatest nearness
	hist, smooth [histBins]float64
	sums         [depthLayers]float64
	layer        []int16 // per-pixel layer, -1 = background
	// sat's interior cell (x+1, y+1) holds pixel (x, y)'s weighted value
	// until sumTable turns the table into sums.
	sat        sat
	k          weighConsts
	layerBands [2 * (depthLayers + 1)]float32 // the sample band of the background, then of each layer
}

// table returns the centre-bias table of a W×H frame.
func (s *scratch) table(W, H int) *biasTable {
	if b := newCentreBias(W, H); s.bias == nil || s.bias.of != b {
		s.bias = newBiasTable(b, W, H)
	}
	return s.bias
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

func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// zRow returns row y of the depth map.
func (s *scratch) zRow(y int) []float32 {
	d := s.depth
	return d.Z[y*d.Stride : y*d.Stride+d.W]
}

// detect runs the pipeline on depth under cfg.
func (s *scratch) detect(cfg Config, depth *frame.DepthMap) frame.Rect {
	W, H := depth.W, depth.H
	s.depth = depth
	s.table(W, H)
	s.layer = grow(s.layer, W*H)
	s.sat = sat{w: W, h: H, s: grow(s.sat.s, (W+1)*(H+1))}

	// Pass 1 — half-bin counts and extremes.
	clear(s.counts[:])
	for i := range slots {
		s.least[i], s.most[i] = math.Inf(1), math.Inf(-1)
	}
	for y := range H {
		scanRow(s.zRow(y), s.counts[:], s.least[:], s.most[:])
	}

	// Step ① — the nearness histogram and its valley. Half-bins 2b and 2b+1
	// are bin b (histBin puts nearness 0 and NaN in bin 0, as slotOf puts
	// them in half-bin 0) and the slot of nearness 1 is the top bin's
	// (histBin clamps it there). Counts are whole numbers, exact in any
	// grouping.
	for b := range s.hist {
		s.hist[b] = float64(s.counts[2*b]) + float64(s.counts[2*b+1])
	}
	s.hist[histBins-1] += float64(s.counts[2*histBins])
	thr := histThreshold(s.hist[:], s.smooth[:])

	// Step ③'s depth range of the foreground. A pixel is foreground when its
	// nearness is positive and at or above the threshold; its weighted value
	// (nearness plus a non-negative bias) is then positive too, which is the
	// test the reference applies. The threshold is j/(2·histBins) for a
	// whole j ≥ 2 (DESIGN.md §30), so v ≥ thr exactly when v's slot is j or
	// above, and those slots hold positive nearness only.
	j := thr * scale
	if j != math.Trunc(j) || j < 1 || j > scale {
		panic("roi: threshold off the half-bin grid")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := int(j); i < slots; i++ {
		lo, hi = min(lo, s.least[i]), max(hi, s.most[i])
	}
	// Nothing classified as foreground (e.g. a uniform depth map): the whole
	// weighted-nearness map becomes one layer.
	s.k = weighConsts{thr: thr, lo: lo, span: hi - lo, layers: depthLayers, top: depthLayers - 1, degenerate: math.IsInf(lo, 1)}

	// Steps ② to ④ — weighted value and layer of every pixel, the layer sums
	// in raster order, the winning layer and its summed-area table.
	s.weigh()
	sel := 0
	for l := 1; l < depthLayers; l++ {
		if s.sums[l] > s.sums[sel] {
			sel = l
		}
	}
	s.sumTable(int16(sel))
	s.depth = nil // do not pin the caller's map

	// Algorithm 1 — coarse then fine window search on the processed map.
	coarse := searchBest(&s.sat, W, H, cfg.WindowW, cfg.WindowH,
		0, W-cfg.WindowW, 0, H-cfg.WindowH, cfg.CoarseStride)
	return searchBest(&s.sat, W, H, cfg.WindowW, cfg.WindowH,
		coarse.X-cfg.Boundary, coarse.X+cfg.Boundary,
		coarse.Y-cfg.Boundary, coarse.Y+cfg.Boundary, cfg.FineStride)
}

// slotOf is the slot of depth sample z: ⌊v·scale⌋ for nearness v > 0 —
// half-bins 0 … 2·histBins−1, and 2·histBins for v = 1 — and 0 for
// nearness 0 or NaN.
func slotOf(z float32) int {
	if t := frame.NearnessOf(z) * scale; t > 0 {
		return int(t)
	}
	return 0
}

// scanRow counts z's pixels into their slots and widens each slot's
// [least, most] nearness to cover them. Slot 0's extremes are left
// unspecified (a NaN sample lands there): the threshold lies at least one
// half-bin up, so they are never read. The vector body counts a run of
// samples inside one slot's band (slotBands) without the expression.
func scanRow(z []float32, n []uint32, least, most []float64) {
	k := 0
	if haveDetectBulk {
		k = len(z) &^ 7
	}
	if k > 0 {
		scanOcts(&z[0], k, &n[0], &least[0], &most[0], scale, &slotBands[0])
	}
	scanGo(z[k:], n, least, most)
}

// scanGo is the portable form of scanRow.
func scanGo(z []float32, n []uint32, least, most []float64) {
	least, most = least[:len(n)], most[:len(n)]
	for _, zz := range z {
		v, i := frame.NearnessOf(zz), slotOf(zz)
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
	for i := range bands {
		bands[i] = float32(math.Inf(1 - 2*(i&1)))
	}
	end := atMost(first - 1)
	for i := 0; 2*i < len(bands); i++ {
		start := atMost(first + i)
		if start < end {
			bands[2*i], bands[2*i+1] = keyZ(start), keyZ(end-1)
		}
		end = start
	}
}

// weighConsts are weigh's operands for one frame, in the order the SSE2
// body loads them.
type weighConsts struct {
	thr, lo, span float64
	layers, top   float64 // the layer count, and one less
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

// weigh writes the weighted value and the layer of every pixel and adds the
// weighted values up per layer, in raster order. A row's right half reads
// the bias table's row backwards.
func (s *scratch) weigh() {
	W, H := s.depth.W, s.depth.H
	half := (W + 1) / 2
	clear(s.sums[:])
	if s.k.vector() {
		zBands(s.layerBands[:], s.k.layerOf, -1)
	}
	for y := range H {
		cells := s.sat.s[(y+1)*(W+1)+1 : (y+2)*(W+1)]
		layer := s.layer[y*W : (y+1)*W]
		bias := s.bias.row(y, H)
		z := s.zRow(y)
		weighRow(z[:half], bias[:half], false, cells[:half], layer[:half], s.sums[:], &s.k, s.layerBands[:])
		weighRow(z[half:], bias[:W-half], true, cells[half:], layer[half:], s.sums[:], &s.k, s.layerBands[:])
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
