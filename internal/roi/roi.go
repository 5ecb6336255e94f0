// Package roi implements GameStreamSR's server-side depth-guided RoI
// detection (paper §IV-B): the four depth-map pre-processing steps of Fig. 8
// (foreground extraction, spatial weighting, depth-map layering, depth-layer
// selection) followed by the two-stage coarse→fine RoI window search of
// Algorithm 1, including the paper's center-biased tie-break.
//
// The detector consumes the depth buffer the renderer produced for the
// frame, works entirely on the low-resolution frame (detection happens
// before encoding, §IV-A step ❸) and returns the RoI rectangle that is
// shipped to the client alongside the encoded frame.
package roi

import (
	"fmt"
	"math"
	"sync"

	"gamestreamsr/internal/frame"
)

// The pre-processing constants of Fig. 8.
const (
	histBins    = 64   // histogram bins of the foreground extraction
	depthLayers = 4    // depth layers the weighted map is split into
	gaussAmp    = 0.5  // peak of the centre-bias Gaussian added to the unit-range depth map
	sigmaFrac   = 0.25 // the Gaussian's sigma, as a fraction of the frame's smaller side
)

// Config parameterises the detector: the window and Algorithm 1's strides.
type Config struct {
	// WindowW, WindowH is the RoI search-window size in low-resolution
	// pixels, i.e. the client's real-time-processable window from §IV-B1
	// (e.g. 300×300 for the Tab S8).
	WindowW, WindowH int
	// CoarseStride S. Defaults to the paper's max(h, w)/2.
	CoarseStride int
	// FineStride s < S (default max(1, S/8)).
	FineStride int
	// Boundary b of the fine search around the coarse result (default S).
	Boundary int
}

func (c Config) withDefaults() Config {
	if c.CoarseStride <= 0 {
		c.CoarseStride = max(c.WindowW, c.WindowH) / 2
		if c.CoarseStride < 1 {
			c.CoarseStride = 1
		}
	}
	if c.FineStride <= 0 {
		c.FineStride = max(1, c.CoarseStride/8)
	}
	if c.FineStride >= c.CoarseStride && c.CoarseStride > 1 {
		c.FineStride = max(1, c.CoarseStride/2)
	}
	if c.Boundary <= 0 {
		c.Boundary = c.CoarseStride
	}
	return c
}

// Detector runs the RoI detection pipeline. No result depends on an earlier
// frame, but the detector keeps one working set between calls
// (detect_fast.go), so a steady stream of frames allocates nothing. It is
// safe for concurrent use: concurrent calls take turns on the working set.
type Detector struct {
	cfg  Config
	mu   sync.Mutex
	work *scratch
}

// New validates the configuration and builds a detector.
func New(cfg Config) (*Detector, error) {
	if cfg.WindowW <= 0 || cfg.WindowH <= 0 {
		return nil, fmt.Errorf("roi: invalid window %dx%d", cfg.WindowW, cfg.WindowH)
	}
	return &Detector{cfg: cfg.withDefaults(), work: &scratch{}}, nil
}

// Config returns the effective configuration.
func (d *Detector) Config() Config { return d.cfg }

// Debug captures the intermediate products of one detection, matching the
// stages of the paper's Fig. 8. It is only populated when requested and is
// what `gssr run fig8` dumps as PGM images.
type Debug struct {
	W, H       int
	Nearness   []float64 // raw darkness-intensity map
	Threshold  float64   // foreground/background nearness threshold
	Foreground []float64 // after background suppression
	Weighted   []float64 // after Gaussian spatial weighting
	LayerOf    []int     // per-pixel layer assignment (-1 = background)
	LayerSums  []float64 // per-layer total weighted value
	Selected   int       // index of the chosen layer
	SearchMap  []float64 // the plane Algorithm 1 ran on
	Coarse     frame.Rect
	Fine       frame.Rect
}

// Detect runs the full pipeline on the depth map and returns the RoI
// rectangle in low-resolution pixel coordinates.
func (d *Detector) Detect(depth *frame.DepthMap) (frame.Rect, error) {
	r, _, _, err := d.detect(depth)
	return r, err
}

// detect runs the three passes of detect_fast.go on depth and returns the
// rectangle with the threshold and the centre-bias table it used.
func (d *Detector) detect(depth *frame.DepthMap) (frame.Rect, float64, *biasTable, error) {
	if err := d.checkWindow(depth); err != nil {
		return frame.Rect{}, 0, nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	r := d.work.detect(d.cfg, depth)
	return r, d.work.k.thr, d.work.bias, nil
}

// DetectDebug is Detect plus the intermediate stages.
func (d *Detector) DetectDebug(depth *frame.DepthMap) (frame.Rect, *Debug, error) {
	return d.detectReference(depth, true)
}

func (d *Detector) checkWindow(depth *frame.DepthMap) error {
	if d.cfg.WindowW > depth.W || d.cfg.WindowH > depth.H {
		return fmt.Errorf("roi: window %dx%d larger than depth map %dx%d", d.cfg.WindowW, d.cfg.WindowH, depth.W, depth.H)
	}
	return nil
}

// detectReference is the pipeline one stage at a time, each into a fresh
// full-frame plane: the form the paper's Fig. 8 draws, the one that can show
// its intermediate products, and the one the fused passes of detect_fast.go
// are differentially tested against.
func (d *Detector) detectReference(depth *frame.DepthMap, wantDebug bool) (frame.Rect, *Debug, error) {
	if err := d.checkWindow(depth); err != nil {
		return frame.Rect{}, nil, err
	}
	W, H := depth.W, depth.H
	cfg := d.cfg
	var dbg *Debug
	if wantDebug {
		dbg = &Debug{W: W, H: H}
	}

	// Darkness-intensity representation: near = large (paper Fig. 5).
	near := depth.Nearness()
	if dbg != nil {
		dbg.Nearness = append([]float64(nil), near...)
	}

	// Step ① — foreground extraction via the histogram valley.
	thr := foregroundThreshold(near, histBins)
	fg := make([]float64, len(near))
	for i, v := range near {
		if v >= thr {
			fg[i] = v
		}
	}
	if dbg != nil {
		dbg.Threshold = thr
		dbg.Foreground = append([]float64(nil), fg...)
	}

	// Step ② — spatial weighting with a center-biased Gaussian.
	bias := newCentreBias(W, H)
	weighted := make([]float64, len(fg))
	for y := 0; y < H; y++ {
		for x := 0; x < W; x++ {
			i := y*W + x
			if fg[i] <= 0 {
				continue
			}
			weighted[i] = fg[i] + bias.at(x, y)
		}
	}
	if dbg != nil {
		dbg.Weighted = append([]float64(nil), weighted...)
	}

	// Step ③ — depth-map layering: evenly divide the foreground depth range
	// into layers. Layer membership is decided by depth (nearness) so that
	// an object at one depth lands in one layer; the spatial weights from
	// step ② contribute to each layer's importance sum and to the search
	// map, which is how the center bias steers selection without slicing
	// objects into Gaussian rings.
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range fg {
		if weighted[i] <= 0 {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	layerOf := make([]int, len(weighted))
	layerSums := make([]float64, depthLayers)
	if math.IsInf(lo, 1) {
		// Degenerate: nothing classified as foreground (e.g. a uniform
		// depth map). Fall back to treating the whole weighted-nearness
		// map as a single layer so detection still returns the
		// center-biased window rather than failing.
		for y := 0; y < H; y++ {
			for x := 0; x < W; x++ {
				i := y*W + x
				weighted[i] = near[i] + bias.at(x, y)
				layerOf[i] = 0
			}
		}
		for _, v := range weighted {
			layerSums[0] += v
		}
	} else {
		span := hi - lo
		for i, v := range weighted {
			if v <= 0 {
				layerOf[i] = -1
				continue
			}
			l := 0
			if span > 0 {
				l = int((fg[i] - lo) / span * depthLayers)
				if l >= depthLayers {
					l = depthLayers - 1
				}
			}
			layerOf[i] = l
			layerSums[l] += v
		}
	}

	// Step ④ — depth-layer selection: the layer with the maximum overall
	// weighted value wins; the rest are discarded.
	sel := 0
	for l := 1; l < depthLayers; l++ {
		if layerSums[l] > layerSums[sel] {
			sel = l
		}
	}
	search := make([]float64, len(weighted))
	for i, l := range layerOf {
		if l == sel {
			search[i] = weighted[i]
		}
	}
	if dbg != nil {
		dbg.LayerOf = layerOf
		dbg.LayerSums = layerSums
		dbg.Selected = sel
		dbg.SearchMap = append([]float64(nil), search...)
	}

	// Algorithm 1 — coarse then fine window search on the processed map.
	sat := newSAT(search, W, H)
	coarse := searchBest(sat, W, H, cfg.WindowW, cfg.WindowH,
		0, W-cfg.WindowW, 0, H-cfg.WindowH, cfg.CoarseStride)
	fine := searchBest(sat, W, H, cfg.WindowW, cfg.WindowH,
		coarse.X-cfg.Boundary, coarse.X+cfg.Boundary,
		coarse.Y-cfg.Boundary, coarse.Y+cfg.Boundary, cfg.FineStride)
	if dbg != nil {
		dbg.Coarse = coarse
		dbg.Fine = fine
	}
	return fine, dbg, nil
}

// centreBias is the spatial weight of step ②: a Gaussian of amplitude amp
// centred on the frame.
type centreBias struct {
	amp, cx, cy, inv2s2 float64
}

func newCentreBias(W, H int) centreBias {
	sigma := sigmaFrac * float64(min(W, H))
	return centreBias{amp: gaussAmp, cx: float64(W-1) / 2, cy: float64(H-1) / 2, inv2s2: 1 / (2 * sigma * sigma)}
}

// at is the weight added to a foreground pixel at (x, y).
func (b centreBias) at(x, y int) float64 {
	dx, dy := float64(x)-b.cx, float64(y)-b.cy
	return b.amp * math.Exp(-(dx*dx+dy*dy)*b.inv2s2)
}

// foregroundThreshold analyses the nearness histogram and returns the
// threshold separating background (below) from foreground (at or above).
// It looks for the deepest valley between the low-value (background) mass
// and the high-value (foreground) mass, as the paper's coarse-grained
// gap-finding approach describes, and falls back to Otsu's threshold when
// the histogram has no clear valley.
func foregroundThreshold(near []float64, bins int) float64 {
	hist := make([]float64, bins)
	for _, v := range near {
		hist[histBin(v, bins)]++
	}
	return histThreshold(hist, make([]float64, bins))
}

// histBin is the histogram bin of nearness v. NaN goes to bin 0 by the
// first test: converting it to int gives a different integer on each GOARCH.
func histBin(v float64, bins int) int {
	if !(v > 0) {
		return 0
	}
	b := int(v * float64(bins))
	if b >= bins {
		b = bins - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// histThreshold is foregroundThreshold from the histogram on; sm is scratch
// of the histogram's length.
func histThreshold(hist, sm []float64) float64 {
	bins := len(hist)
	// Light smoothing to suppress single-bin noise.
	for i := range hist {
		sum, n := hist[i], 1.0
		if i > 0 {
			sum += hist[i-1]
			n++
		}
		if i < bins-1 {
			sum += hist[i+1]
			n++
		}
		sm[i] = sum / n
	}
	// First and last occupied bins.
	first, last := -1, -1
	for i, v := range sm {
		if v > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 || first == last {
		return 0 // empty or single-valued map: everything is foreground
	}
	// Deepest valley strictly between the two outer masses, weighted by
	// how much mass lies on each side so a dip at the very edge does not
	// win over the true foreground/background gap.
	bestBin, bestScore := -1, math.Inf(1)
	var leftMass float64
	total := 0.0
	for _, v := range sm {
		total += v
	}
	for i := first + 1; i < last; i++ {
		leftMass += sm[i-1]
		rightMass := total - leftMass - sm[i]
		if leftMass < total*0.05 || rightMass < total*0.05 {
			continue
		}
		if sm[i] < bestScore {
			bestScore = sm[i]
			bestBin = i
		}
	}
	if bestBin >= 0 && bestScore <= 0.5*peakAround(sm, bestBin) {
		// Return the center of the contiguous valley run: thresholding in
		// the middle of the gap is robust to quantization jitter at either
		// mode's edge.
		left, right := bestBin, bestBin
		for left-1 > first && sm[left-1] <= bestScore {
			left--
		}
		for right+1 < last && sm[right+1] <= bestScore {
			right++
		}
		return float64(left+right) / 2 / float64(bins)
	}
	return otsu(hist, bins)
}

// peakAround returns the smaller of the two highest bin counts on either
// side of index i — the valley must be clearly below both flanks to count.
func peakAround(hist []float64, i int) float64 {
	left, right := 0.0, 0.0
	for j := 0; j < i; j++ {
		if hist[j] > left {
			left = hist[j]
		}
	}
	for j := i + 1; j < len(hist); j++ {
		if hist[j] > right {
			right = hist[j]
		}
	}
	return math.Min(left, right)
}

// otsu computes Otsu's threshold over the histogram, returned in [0, 1].
func otsu(hist []float64, bins int) float64 {
	var total, sumAll float64
	for i, v := range hist {
		total += v
		sumAll += float64(i) * v
	}
	if total == 0 {
		return 0
	}
	var wB, sumB float64
	bestVar, bestBin := -1.0, 0
	for i := 0; i < bins; i++ {
		wB += hist[i]
		if wB == 0 {
			continue
		}
		wF := total - wB
		if wF == 0 {
			break
		}
		sumB += float64(i) * hist[i]
		mB := sumB / wB
		mF := (sumAll - sumB) / wF
		v := wB * wF * (mB - mF) * (mB - mF)
		if v > bestVar {
			bestVar = v
			bestBin = i
		}
	}
	return float64(bestBin+1) / float64(bins)
}

// sat is a summed-area table; Query returns window sums in O(1), which is
// the CPU equivalent of the paper's parallel per-window GPU reductions.
type sat struct {
	w, h int
	s    []float64
}

func newSAT(plane []float64, w, h int) *sat {
	t := &sat{w: w, h: h, s: make([]float64, (w+1)*(h+1))}
	for y := 0; y < h; y++ {
		rowSum := 0.0
		for x := 0; x < w; x++ {
			rowSum += plane[y*w+x]
			t.s[(y+1)*(w+1)+(x+1)] = t.s[y*(w+1)+(x+1)] + rowSum
		}
	}
	return t
}

// query returns the sum over [x, x+w) × [y, y+h).
func (t *sat) query(x, y, w, h int) float64 {
	x1, y1 := x+w, y+h
	W := t.w + 1
	return t.s[y1*W+x1] - t.s[y*W+x1] - t.s[y1*W+x] + t.s[y*W+x]
}

// searchBest slides a wW×wH window over positions x ∈ [x0, x1], y ∈ [y0, y1]
// (clamped to valid placements) with the given stride and returns the
// placement with the maximum sum; ties go to the placement nearest the frame
// center (paper §IV-B2). The final valid position along each axis is always
// evaluated so the stride never skips the right/bottom edge.
func searchBest(t *sat, W, H, wW, wH, x0, x1, y0, y1, stride int) frame.Rect {
	if stride < 1 {
		stride = 1
	}
	x0 = clampInt(x0, 0, W-wW)
	x1 = clampInt(x1, 0, W-wW)
	y0 = clampInt(y0, 0, H-wH)
	y1 = clampInt(y1, 0, H-wH)
	cx, cy := W/2, H/2
	best := frame.Rect{X: x0, Y: y0, W: wW, H: wH}
	bestSum := math.Inf(-1)
	bestDist := 0
	for y := y0; ; y += stride {
		if y > y1 {
			if (y - stride) != y1 {
				y = y1 // evaluate the final row
			} else {
				break
			}
		}
		for x := x0; ; x += stride {
			if x > x1 {
				if (x - stride) != x1 {
					x = x1
				} else {
					break
				}
			}
			sum := t.query(x, y, wW, wH)
			r := frame.Rect{X: x, Y: y, W: wW, H: wH}
			d := r.CenterDistance2(cx, cy)
			if sum > bestSum || (sum == bestSum && d < bestDist) {
				best, bestSum, bestDist = r, sum, d
			}
			if x == x1 {
				break
			}
		}
		if y == y1 {
			break
		}
	}
	return best
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
