package roi

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/render"
)

// fillDepth sets every sample of d to z.
func fillDepth(d *frame.DepthMap, z float32) {
	for i := range d.Z {
		d.Z[i] = z
	}
}

// contains reports whether the pixel (x, y) lies inside r.
func contains(r frame.Rect, x, y int) bool {
	return x >= r.X && x < r.X+r.W && y >= r.Y && y < r.Y+r.H
}

// blobMap builds a depth map that is far (z≈0.9) everywhere except a near
// blob (z≈0.1) of size bw×bh at (bx, by).
func blobMap(w, h, bx, by, bw, bh int) *frame.DepthMap {
	d := frame.NewDepthMap(w, h)
	fillDepth(d, 0.9)
	for y := by; y < by+bh && y < h; y++ {
		for x := bx; x < bx+bw && x < w; x++ {
			d.Z[y*d.Stride+x] = 0.1
		}
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{WindowW: 0, WindowH: 10}); err == nil {
		t.Error("zero window should fail")
	}
	if _, err := New(Config{WindowW: 10, WindowH: 10}); err != nil {
		t.Errorf("valid config failed: %v", err)
	}
}

func TestWindowLargerThanMap(t *testing.T) {
	det, _ := New(Config{WindowW: 50, WindowH: 50})
	if _, err := det.Detect(frame.NewDepthMap(40, 40)); err == nil {
		t.Error("oversized window should fail")
	}
}

func TestDetectFindsNearBlob(t *testing.T) {
	det, _ := New(Config{WindowW: 16, WindowH: 16})
	d := blobMap(128, 96, 70, 40, 14, 14)
	r, err := det.Detect(d)
	if err != nil {
		t.Fatal(err)
	}
	// The RoI window must cover the blob center.
	if !contains(r, 77, 47) {
		t.Errorf("RoI %v does not cover blob center (77,47)", r)
	}
	if !r.In(128, 96) {
		t.Errorf("RoI %v out of bounds", r)
	}
}

func TestDetectPrefersCenterOnTie(t *testing.T) {
	// Uniform near map: everything is equally important; the paper's
	// tie-break picks the window nearest the frame center.
	det, _ := New(Config{WindowW: 20, WindowH: 20, FineStride: 1, Boundary: 64})
	d := frame.NewDepthMap(100, 100)
	fillDepth(d, 0.2)
	r, err := det.Detect(d)
	if err != nil {
		t.Fatal(err)
	}
	// Perfectly centered window: x = (100-20)/2 = 40 (allow stride slack).
	if absInt(r.X-40) > 3 || absInt(r.Y-40) > 3 {
		t.Errorf("tie-broken RoI %v not centered", r)
	}
}

func TestCenterBiasBreaksSymmetry(t *testing.T) {
	// Two identical blobs, one nearer the center: the Gaussian weighting
	// must steer the RoI to the central one.
	det, _ := New(Config{WindowW: 16, WindowH: 16})
	d := blobMap(160, 120, 75, 55, 12, 12) // near center
	for y := 10; y < 22; y++ {             // identical blob top-left
		for x := 5; x < 17; x++ {
			d.Z[y*d.Stride+x] = 0.1
		}
	}
	r, err := det.Detect(d)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(r, 81, 61) {
		t.Errorf("RoI %v picked the off-center blob", r)
	}
}

func TestForegroundThresholdBimodal(t *testing.T) {
	// 70% background at nearness 0.1, 30% foreground at 0.8 with a clean
	// gap: the threshold must land in the gap.
	vals := make([]float64, 1000)
	for i := range vals {
		if i < 700 {
			vals[i] = 0.1
		} else {
			vals[i] = 0.8
		}
	}
	thr := foregroundThreshold(vals, 64)
	if thr <= 0.15 || thr >= 0.8 {
		t.Errorf("threshold %f not inside the gap (0.15, 0.8)", thr)
	}
}

func TestForegroundThresholdUniform(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 0.5
	}
	thr := foregroundThreshold(vals, 64)
	if thr > 0.5 {
		t.Errorf("uniform map threshold %f would discard everything", thr)
	}
}

func TestForegroundThresholdEmpty(t *testing.T) {
	if thr := foregroundThreshold(nil, 8); thr != 0 {
		t.Errorf("empty input threshold = %f", thr)
	}
}

func TestOtsuSeparatesModes(t *testing.T) {
	hist := make([]float64, 64)
	hist[5] = 500 // background mode
	hist[50] = 300
	thr := otsu(hist, 64)
	if thr <= 5.0/64 || thr >= 50.0/64 {
		t.Errorf("otsu threshold %f not between the modes", thr)
	}
	if otsu(make([]float64, 8), 8) != 0 {
		t.Error("empty histogram should threshold at 0")
	}
}

func TestSATCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w, h := 17, 11
	plane := make([]float64, w*h)
	for i := range plane {
		plane[i] = rng.Float64()
	}
	s := newSAT(plane, w, h)
	brute := func(x, y, ww, hh int) float64 {
		sum := 0.0
		for j := y; j < y+hh; j++ {
			for i := x; i < x+ww; i++ {
				sum += plane[j*w+i]
			}
		}
		return sum
	}
	for trial := 0; trial < 200; trial++ {
		x := rng.Intn(w)
		y := rng.Intn(h)
		ww := rng.Intn(w-x) + 1
		hh := rng.Intn(h-y) + 1
		got := s.query(x, y, ww, hh)
		want := brute(x, y, ww, hh)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("query(%d,%d,%d,%d) = %f, want %f", x, y, ww, hh, got, want)
		}
	}
}

// exhaustive finds the true argmax window with the same tie-break.
func exhaustive(plane []float64, W, H, wW, wH int) frame.Rect {
	s := newSAT(plane, W, H)
	return searchBest(s, W, H, wW, wH, 0, W-wW, 0, H-wH, 1)
}

func TestSearchStride1MatchesExhaustive(t *testing.T) {
	// Property: with stride 1 the coarse search IS exhaustive; our
	// two-stage search with a sufficiently wide boundary must agree on
	// maps with a unique dominant blob.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		W, H := 48, 36
		plane := make([]float64, W*H)
		for i := range plane {
			plane[i] = rng.Float64() * 0.1
		}
		// One dominant blob.
		bx := rng.Intn(W - 8)
		by := rng.Intn(H - 8)
		for y := by; y < by+8; y++ {
			for x := bx; x < bx+8; x++ {
				plane[y*W+x] += 5
			}
		}
		want := exhaustive(plane, W, H, 8, 8)
		s := newSAT(plane, W, H)
		coarse := searchBest(s, W, H, 8, 8, 0, W-8, 0, H-8, 4)
		fine := searchBest(s, W, H, 8, 8, coarse.X-4, coarse.X+4, coarse.Y-4, coarse.Y+4, 1)
		return fine == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSearchCoversEdges(t *testing.T) {
	// Mass at the bottom-right corner must be reachable even when the
	// stride does not divide the search span.
	W, H := 50, 50
	plane := make([]float64, W*H)
	for y := 43; y < 50; y++ {
		for x := 43; x < 50; x++ {
			plane[y*W+x] = 10
		}
	}
	s := newSAT(plane, W, H)
	r := searchBest(s, W, H, 7, 7, 0, W-7, 0, H-7, 6)
	if r.X != 43 || r.Y != 43 {
		t.Errorf("edge placement missed: %v", r)
	}
}

func TestDebugStagesConsistent(t *testing.T) {
	det, _ := New(Config{WindowW: 16, WindowH: 16})
	d := blobMap(96, 72, 40, 30, 12, 12)
	r, dbg, err := det.DetectDebug(d)
	if err != nil {
		t.Fatal(err)
	}
	if dbg == nil {
		t.Fatal("debug not populated")
	}
	if dbg.Fine != r {
		t.Error("debug fine rect disagrees with result")
	}
	if len(dbg.Nearness) != 96*72 || len(dbg.Weighted) != 96*72 || len(dbg.SearchMap) != 96*72 {
		t.Error("debug plane sizes wrong")
	}
	if dbg.Selected < 0 || dbg.Selected >= len(dbg.LayerSums) {
		t.Error("selected layer out of range")
	}
	// The selected layer must have the maximum sum.
	for l, s := range dbg.LayerSums {
		if s > dbg.LayerSums[dbg.Selected] {
			t.Errorf("layer %d has sum %f > selected %f", l, s, dbg.LayerSums[dbg.Selected])
		}
	}
	// Weighted values only exist where foreground exists.
	for i := range dbg.Weighted {
		if dbg.Foreground[i] == 0 && dbg.Weighted[i] != 0 {
			t.Fatal("background pixel acquired weight")
		}
	}
	// Coarse result within the map.
	if !dbg.Coarse.In(96, 72) {
		t.Error("coarse rect out of bounds")
	}
}

func TestDetectRenderedGameFrames(t *testing.T) {
	// End-to-end sanity on all ten games: the detected RoI must cover a
	// region whose mean depth is nearer than the frame mean — the
	// detector keys on foreground, not sky.
	rd := &render.Renderer{}
	det, _ := New(Config{WindowW: 40, WindowH: 40})
	for _, wl := range games.All() {
		out := wl.Render(rd, 30, 160, 90)
		r, err := det.Detect(out.Depth)
		if err != nil {
			t.Fatalf("%s: %v", wl.ID, err)
		}
		if !r.In(160, 90) || r.W != 40 || r.H != 40 {
			t.Fatalf("%s: bad RoI %v", wl.ID, r)
		}
		roiMean, frameMean := 0.0, 0.0
		for y := 0; y < 90; y++ {
			for x := 0; x < 160; x++ {
				z := float64(out.Depth.Z[y*out.Depth.Stride+x])
				frameMean += z
				if contains(r, x, y) {
					roiMean += z
				}
			}
		}
		roiMean /= float64(r.W * r.H)
		frameMean /= float64(160 * 90)
		if roiMean >= frameMean {
			t.Errorf("%s: RoI mean depth %.3f not nearer than frame mean %.3f", wl.ID, roiMean, frameMean)
		}
	}
}

func TestDetectDeterministic(t *testing.T) {
	rd := &render.Renderer{}
	wl, _ := games.ByID("G3")
	out := wl.Render(rd, 12, 160, 90)
	det, _ := New(Config{WindowW: 32, WindowH: 32})
	a, err := det.Detect(out.Depth)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := det.Detect(out.Depth)
	if a != b {
		t.Errorf("detection not deterministic: %v vs %v", a, b)
	}
}

func TestConfigDefaults(t *testing.T) {
	det, _ := New(Config{WindowW: 300, WindowH: 300})
	cfg := det.Config()
	if cfg.CoarseStride != 150 {
		t.Errorf("coarse stride = %d, want max(h,w)/2 = 150", cfg.CoarseStride)
	}
	if cfg.FineStride >= cfg.CoarseStride {
		t.Error("fine stride must be smaller than coarse")
	}
	if cfg.Boundary != cfg.CoarseStride {
		t.Errorf("boundary default = %d", cfg.Boundary)
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// BenchmarkDetect720p is the server's per-frame detection in steady state
// at the paper's geometry and window: the first call, which sizes the kept
// planes, is outside the timer.
func BenchmarkDetect720p(b *testing.B) { benchDetect(b, 1280, 720, 300) }

// BenchmarkDetect360p is live_360p's detector: G3 at 640×360 under the
// 64-pixel window the client announces.
func BenchmarkDetect360p(b *testing.B) { benchDetect(b, 640, 360, 64) }

func benchDetect(b *testing.B, w, h, window int) {
	rd := &render.Renderer{}
	wl, _ := games.ByID("G3")
	out := wl.Render(rd, 30, w, h)
	det, _ := New(Config{WindowW: window, WindowH: window})
	if _, err := det.Detect(out.Depth); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Detect(out.Depth); err != nil {
			b.Fatal(err)
		}
	}
}

// Parameter-sensitivity sweep: the detector must keep finding the dominant
// blob across reasonable settings of Algorithm 1's strides — the design
// should not be balanced on a knife's edge of constants.
func TestDetectionRobustToParameters(t *testing.T) {
	d := blobMap(160, 120, 90, 50, 16, 16)
	blobCenterX, blobCenterY := 98, 58
	cases := []Config{
		{WindowW: 20, WindowH: 20, CoarseStride: 4},
		{WindowW: 20, WindowH: 20, CoarseStride: 40, FineStride: 2, Boundary: 40},
	}
	for i, cfg := range cases {
		det, err := New(cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		r, err := det.Detect(d)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !contains(r, blobCenterX, blobCenterY) {
			t.Errorf("case %d (%+v): RoI %v lost the blob", i, cfg, r)
		}
	}
}

// Rectangular (non-square) windows must work: the paper's h×w formulation
// is general even though the evaluation uses squares.
func TestRectangularWindow(t *testing.T) {
	det, err := New(Config{WindowW: 30, WindowH: 12})
	if err != nil {
		t.Fatal(err)
	}
	d := blobMap(120, 80, 50, 40, 24, 8) // wide flat blob
	r, err := det.Detect(d)
	if err != nil {
		t.Fatal(err)
	}
	if r.W != 30 || r.H != 12 {
		t.Fatalf("window shape changed: %v", r)
	}
	if !contains(r, 62, 44) {
		t.Errorf("RoI %v missed the wide blob", r)
	}
}
