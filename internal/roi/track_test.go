package roi

import (
	"math"
	"math/rand"
	"testing"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/render"
	"gamestreamsr/internal/testkit"
)

// twoBlobMap places two near blobs whose relative strength alternates
// slightly with phase — the flicker scenario tracking exists for.
func twoBlobMap(w, h int, phase int) *frame.DepthMap {
	d := frame.NewDepthMap(w, h)
	fillDepth(d, 0.9)
	// Blob A left-center, blob B right-center; the stronger one (slightly
	// nearer) alternates with phase.
	za, zb := float32(0.10), float32(0.12)
	if phase%2 == 1 {
		za, zb = 0.12, 0.10
	}
	for y := h/2 - 8; y < h/2+8; y++ {
		for x := w/2 - 24; x < w/2-8; x++ {
			d.Z[y*d.Stride+x] = za
		}
		for x := w/2 + 8; x < w/2+24; x++ {
			d.Z[y*d.Stride+x] = zb
		}
	}
	return d
}

func TestTrackerSuppressesFlicker(t *testing.T) {
	det, err := New(Config{WindowW: 20, WindowH: 20})
	if err != nil {
		t.Fatal(err)
	}

	// Untracked: the RoI follows the alternating winner, flipping sides.
	var rawPositions []int
	for i := 0; i < 6; i++ {
		r, err := det.Detect(twoBlobMap(128, 72, i))
		if err != nil {
			t.Fatal(err)
		}
		rawPositions = append(rawPositions, r.X)
	}
	flips := 0
	for i := 1; i < len(rawPositions); i++ {
		if testkit.AbsInt(rawPositions[i]-rawPositions[i-1]) > 10 {
			flips++
		}
	}
	if flips == 0 {
		t.Skip("scene did not flicker without tracking; scenario invalid")
	}

	// Tracked: hysteresis holds the incumbent.
	tr, err := NewTracker(det, TrackConfig{Hysteresis: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	var tracked []int
	for i := 0; i < 6; i++ {
		r, err := tr.Detect(twoBlobMap(128, 72, i))
		if err != nil {
			t.Fatal(err)
		}
		tracked = append(tracked, r.X)
	}
	for i := 1; i < len(tracked); i++ {
		if testkit.AbsInt(tracked[i]-tracked[i-1]) > 10 {
			t.Fatalf("tracked RoI still flips: %v", tracked)
		}
	}
}

func TestTrackerFollowsRealMotion(t *testing.T) {
	// A genuinely moving object must not be held forever: once its new
	// position clearly dominates, the tracker follows (within MaxStep).
	det, _ := New(Config{WindowW: 16, WindowH: 16})
	tr, _ := NewTracker(det, TrackConfig{Hysteresis: 0.1, MaxStep: 6})
	var lastX int
	for i := 0; i < 20; i++ {
		d := blobMap(128, 72, 20+i*3, 30, 14, 14) // blob marches right
		r, err := tr.Detect(d)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && testkit.AbsInt(r.X-lastX) > 6 {
			t.Fatalf("step %d exceeded MaxStep: %d -> %d", i, lastX, r.X)
		}
		lastX = r.X
	}
	// After 20 frames the blob is at x≈77; the tracker must have moved
	// substantially from its start.
	if lastX < 50 {
		t.Errorf("tracker failed to follow motion: final x=%d", lastX)
	}
}

func TestDetectTrackedFirstFrame(t *testing.T) {
	det, _ := New(Config{WindowW: 16, WindowH: 16})
	d := blobMap(96, 72, 40, 30, 12, 12)
	r, err := det.DetectTracked(d, frame.Rect{}, TrackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := det.Detect(d)
	if r != plain {
		t.Errorf("first tracked frame %v should equal plain detection %v", r, plain)
	}
}

func TestDetectTrackedMismatchedPrev(t *testing.T) {
	det, _ := New(Config{WindowW: 16, WindowH: 16})
	d := blobMap(96, 72, 40, 30, 12, 12)
	// Wrong size or out-of-bounds prev is ignored.
	for _, prev := range []frame.Rect{
		{X: 0, Y: 0, W: 8, H: 16},
		{X: 90, Y: 0, W: 16, H: 16},
	} {
		r, err := det.DetectTracked(d, prev, TrackConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !r.In(96, 72) {
			t.Errorf("tracked rect %v out of bounds", r)
		}
	}
}

func TestTrackerOnGameStream(t *testing.T) {
	// Across consecutive game frames the tracked RoI's total travel must
	// not exceed the untracked one (stability is the point).
	rd := &render.Renderer{}
	g, _ := games.ByID("G7") // dense scene with competing foreground blobs
	det, _ := New(Config{WindowW: 40, WindowH: 40})
	tr, _ := NewTracker(det, TrackConfig{Hysteresis: 0.15, MaxStep: 8})
	travel := func(useTracker bool) int {
		tr.Reset()
		total := 0
		var prev *frame.Rect
		for i := 0; i < 8; i++ {
			out := g.Render(rd, i*8, 160, 90)
			var r frame.Rect
			var err error
			if useTracker {
				r, err = tr.Detect(out.Depth)
			} else {
				r, err = det.Detect(out.Depth)
			}
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil {
				total += testkit.AbsInt(r.X-prev.X) + testkit.AbsInt(r.Y-prev.Y)
			}
			c := r
			prev = &c
		}
		return total
	}
	raw := travel(false)
	smooth := travel(true)
	if smooth > raw {
		t.Errorf("tracked travel %d exceeds raw travel %d", smooth, raw)
	}
	t.Logf("RoI travel over 8 frames: raw %d px, tracked %d px", raw, smooth)
}

func TestNewTrackerValidation(t *testing.T) {
	if _, err := NewTracker(nil, TrackConfig{}); err == nil {
		t.Error("nil detector should fail")
	}
}

// detectTrackedReference is DetectTracked as it was before the tracker ran
// the shipped detector: the reference pipeline with its debug planes, the
// hysteresis sums read off the weighted plane.
func (d *Detector) detectTrackedReference(depth *frame.DepthMap, prev frame.Rect, tc TrackConfig) (frame.Rect, error) {
	tc = tc.withDefaults()
	rect, dbg, err := d.detectReference(depth, true)
	if err != nil {
		return frame.Rect{}, err
	}
	if prev.Empty() || prev.W != rect.W || prev.H != rect.H || !prev.In(depth.W, depth.H) {
		return rect, nil
	}
	newSum := planeSum(dbg.Weighted, dbg.W, rect)
	prevSum := planeSum(dbg.Weighted, dbg.W, prev)
	target := rect
	if newSum <= prevSum*(1+tc.Hysteresis) {
		target = prev
	}
	if tc.MaxStep > 0 {
		target.X = stepToward(prev.X, target.X, tc.MaxStep)
		target.Y = stepToward(prev.Y, target.Y, tc.MaxStep)
	}
	return target.Clamp(depth.W, depth.H), nil
}

func planeSum(p []float64, stride int, r frame.Rect) float64 {
	sum := 0.0
	for y := r.Y; y < r.Y+r.H; y++ {
		row := y * stride
		for x := r.X; x < r.X+r.W; x++ {
			sum += p[row+x]
		}
	}
	return sum
}

// TestDetectTrackedMatchesReference is the tracker's differential: on game
// streams and the crafted maps, with the previous RoI taken from the last
// frame, from the reference and at random places, with hysteresis both
// holding and letting go, DetectTracked returns what the reference-pipeline
// form returns — and so do the hysteresis sums, compared bit for bit.
func TestDetectTrackedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rd := &render.Renderer{}
	type stream struct {
		name   string
		frames []*frame.DepthMap
	}
	var streams []stream
	for _, id := range []string{"G3", "G7", "G9"} {
		wl, _ := games.ByID(id)
		s := stream{name: id}
		for i := 0; i < 6; i++ {
			s.frames = append(s.frames, wl.Render(rd, i*6, 160, 90).Depth)
		}
		streams = append(streams, s)
	}
	for name, d := range craftedMaps() {
		streams = append(streams, stream{name, []*frame.DepthMap{d, d}})
	}
	for _, cfg := range []Config{{WindowW: 24, WindowH: 24}, {WindowW: 16, WindowH: 12, CoarseStride: 5}, {WindowW: 20, WindowH: 20, FineStride: 3, Boundary: 4}} {
		det, _ := New(cfg)
		for _, tc := range []TrackConfig{{}, {Hysteresis: 0.02, MaxStep: 5}, {Hysteresis: 0.6}} {
			for _, s := range streams {
				var prev frame.Rect
				for i, d := range s.frames {
					if d.W < cfg.WindowW || d.H < cfg.WindowH {
						break
					}
					for _, p := range []frame.Rect{prev, {X: rng.Intn(d.W - cfg.WindowW + 1), Y: rng.Intn(d.H - cfg.WindowH + 1), W: cfg.WindowW, H: cfg.WindowH}} {
						got, gerr := det.DetectTracked(d, p, tc)
						want, werr := det.detectTrackedReference(d, p, tc)
						if got != want || (gerr == nil) != (werr == nil) {
							t.Fatalf("%s frame %d, %+v, %+v, prev %v: DetectTracked = %v, %v; reference form %v, %v", s.name, i, cfg, tc, p, got, gerr, want, werr)
						}
					}
					prev, _ = det.DetectTracked(d, prev, tc)
				}
			}
		}
		// The sums themselves, over random rectangles of one frame.
		d := streams[0].frames[2]
		_, dbg, _ := det.detectReference(d, true)
		bias := det.work.table(d.W, d.H)
		for i := 0; i < 20; i++ {
			r := frame.Rect{X: rng.Intn(d.W - cfg.WindowW + 1), Y: rng.Intn(d.H - cfg.WindowH + 1), W: cfg.WindowW, H: cfg.WindowH}
			if got, want := weightedSum(d, dbg.Threshold, bias, r), planeSum(dbg.Weighted, d.W, r); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v: weightedSum over %v = %v, the weighted plane's sum %v", cfg, r, got, want)
			}
		}
	}
}

// TestDetectTrackedSteadyStateAllocs: once the detector's planes exist, a
// detection allocates nothing, and neither does a tracked one holding a
// previous RoI.
func TestDetectTrackedSteadyStateAllocs(t *testing.T) {
	wl, _ := games.ByID("G3")
	depth := wl.Render(&render.Renderer{}, 30, 320, 180).Depth
	det, _ := New(Config{WindowW: 64, WindowH: 64})
	tr, _ := NewTracker(det, TrackConfig{MaxStep: 4})
	if _, err := tr.Detect(depth); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { det.Detect(depth) }); n != 0 {
		t.Errorf("steady-state Detect allocates %.0f objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { tr.Detect(depth) }); n != 0 {
		t.Errorf("steady-state Tracker.Detect allocates %.0f objects per call, want 0", n)
	}
}
