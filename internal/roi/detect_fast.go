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
// all, every frame. Here the same arithmetic runs in four passes over two
// kept planes (the layer index and the summed-area table, whose cells hold
// the weighted map until the last pass turns them into sums), and nearness
// is recomputed from the depth sample where it is needed instead of being
// stored.
//
// Every floating-point operation of the reference is performed on the same
// operands, and every sum in the same order, so the rectangle is the same
// bit for bit (DESIGN.md §18). The two passes that only read the depth map
// and reduce it — counting the histogram, taking the foreground's least and
// greatest nearness — run in strips under the caller's scheduler client:
// counts and extrema do not depend on grouping. The two that write the
// planes stay serial raster scans: the layer sums depend on their order, and
// both are bound by memory, not arithmetic — split across workers they cost
// a third more CPU for no less wall time.

// maxLayers is the largest Config.Layers the kept int16 layer plane can
// index; beyond it Detect runs the reference pipeline.
const maxLayers = math.MaxInt16

// maxStrips bounds the strips a frame's rows are cut into for the passes
// that reduce (histogram, depth range): one partial result per strip.
const maxStrips = 64

// keptScratch bounds the working sets a detector holds on to; a session uses
// one at a time, and concurrent callers beyond the bound allocate their own.
const keptScratch = 2

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
	bias := newCentreBias(cfg, depth.W, depth.H)
	p.mu.Lock()
	if k := len(p.free); k > 0 {
		s, p.free[k-1] = p.free[k-1], nil
		p.free = p.free[:k-1]
	}
	if p.bias == nil || p.bias.of != bias {
		p.bias = newBiasTable(bias, depth.W, depth.H)
	}
	table := p.bias
	p.mu.Unlock()
	if s == nil {
		s = newScratch()
	}
	s.arm(cfg, depth, table)
	return s
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

	strips int
	hist   []float64 // strips × Bins partial histograms, then their total in the first
	smooth []float64 // Bins, histThreshold's scratch
	ranges []float64 // strips × (lo, hi) of the foreground nearness
	sums   []float64 // Layers
	layer  []int16   // per-pixel layer, -1 = background
	// sat's interior cell (x+1, y+1) holds pixel (x, y)'s weighted value
	// until sumTable turns the table into sums.
	sat sat

	thr, lo, span float64
	degenerate    bool

	// The parallel passes as func values, bound once: a method value made
	// per call would be one allocation per pass per frame.
	histFn, rangeFn func(lo, hi int)
}

func newScratch() *scratch {
	s := &scratch{}
	s.histFn, s.rangeFn = s.histPass, s.rangePass
	return s
}

// arm points the set at one call's inputs, resizing what the geometry or the
// configuration has outgrown.
func (s *scratch) arm(cfg Config, depth *frame.DepthMap, bias *biasTable) {
	s.cfg, s.depth, s.bias = cfg, depth, bias
	W, H := depth.W, depth.H
	s.strips = min(H, maxStrips)
	s.hist = grow(s.hist, s.strips*cfg.Bins)
	s.smooth = grow(s.smooth, cfg.Bins)
	s.ranges = grow(s.ranges, 2*s.strips)
	s.sums = grow(s.sums, cfg.Layers)
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

	// Step ① — the nearness histogram and its valley. Counts are whole
	// numbers, exact in any grouping.
	clear(s.hist)
	c.For(s.strips, s.histFn)
	total := s.hist[:cfg.Bins]
	for k := 1; k < s.strips; k++ {
		for b, n := range s.hist[k*cfg.Bins : (k+1)*cfg.Bins] {
			total[b] += n
		}
	}
	s.thr = histThreshold(total, s.smooth)

	// Step ③'s depth range of the foreground. A pixel is foreground when its
	// nearness is positive and at or above the threshold; its weighted value
	// (nearness plus a non-negative bias) is then positive too, which is the
	// test the reference applies.
	for k := 0; k < s.strips; k++ {
		s.ranges[2*k], s.ranges[2*k+1] = math.Inf(1), math.Inf(-1)
	}
	c.For(s.strips, s.rangeFn)
	lo, hi := math.Inf(1), math.Inf(-1)
	for k := 0; k < s.strips; k++ {
		lo, hi = math.Min(lo, s.ranges[2*k]), math.Max(hi, s.ranges[2*k+1])
	}
	// Nothing classified as foreground (e.g. a uniform depth map): the whole
	// weighted-nearness map becomes one layer.
	s.lo, s.span, s.degenerate = lo, hi-lo, math.IsInf(lo, 1)

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

// histPass counts the nearness bins of strips [lo, hi) into strip lo's
// partial histogram.
func (s *scratch) histPass(lo, hi int) {
	bins := s.cfg.Bins
	acc := s.hist[lo*bins : (lo+1)*bins]
	for y, y1 := s.rows(lo, hi); y < y1; y++ {
		for _, z := range s.zRow(y) {
			acc[histBin(frame.NearnessOf(z), bins)]++
		}
	}
}

// rangePass takes the least and greatest foreground nearness of strips
// [lo, hi) into strip lo's pair.
func (s *scratch) rangePass(lo, hi int) {
	least, most := math.Inf(1), math.Inf(-1)
	for y, y1 := s.rows(lo, hi); y < y1; y++ {
		for _, z := range s.zRow(y) {
			if v := frame.NearnessOf(z); v >= s.thr && v > 0 {
				if v < least {
					least = v
				}
				if v > most {
					most = v
				}
			}
		}
	}
	s.ranges[2*lo], s.ranges[2*lo+1] = least, most
}

// weigh writes the weighted value and the layer of every pixel and adds the
// weighted values up per layer, in raster order.
func (s *scratch) weigh() {
	W, H, layers, sums := s.depth.W, s.depth.H, s.cfg.Layers, s.sums
	thr, lo, span, degenerate := s.thr, s.lo, s.span, s.degenerate
	clear(sums)
	for y := 0; y < H; y++ {
		cells := s.sat.s[(y+1)*(W+1)+1 : (y+2)*(W+1)]
		layer := s.layer[y*W : (y+1)*W]
		bias := s.bias.row(y, H)
		for x, z := range s.zRow(y) {
			v := frame.NearnessOf(z)
			l := 0
			switch {
			case degenerate:
			case v >= thr && v > 0:
				if span > 0 {
					l = int((v - lo) / span * float64(layers))
					if l >= layers {
						l = layers - 1
					}
				}
			default:
				cells[x], layer[x] = 0, -1
				continue
			}
			w := v + bias[min(x, W-1-x)]
			cells[x], layer[x] = w, int16(l)
			sums[l] += w
		}
	}
}

// sumTable turns the table's cells into the summed-area table of layer sel's
// values (the reference's search map: zero elsewhere), as newSAT does: each
// cell becomes the cell above plus the running sum of its row.
func (s *scratch) sumTable(sel int16) {
	W, stride := s.depth.W, s.depth.W+1
	clear(s.sat.s[:stride])
	for y := 0; y < s.depth.H; y++ {
		above, row := s.sat.s[y*stride:(y+1)*stride], s.sat.s[(y+1)*stride:(y+2)*stride]
		row[0] = 0
		rowSum := 0.0
		for x, l := range s.layer[y*W : (y+1)*W] {
			v := row[x+1]
			if l != sel {
				v = 0
			}
			rowSum += v
			row[x+1] = above[x+1] + rowSum
		}
	}
}
