package roi

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/render"
)

// sameRect requires Detect (the fused passes over kept planes) and the
// retained reference pipeline to return the same rectangle for depth.
func sameRect(t testing.TB, det *Detector, depth *frame.DepthMap, what string) {
	t.Helper()
	got, gerr := det.Detect(depth)
	want, _, werr := det.detectReference(depth, false)
	if gerr != nil || werr != nil {
		t.Fatalf("%s: fast error %v, reference error %v", what, gerr, werr)
	}
	if got != want {
		t.Fatalf("%s: Detect = %v, reference pipeline = %v", what, got, want)
	}
}

// atProcs runs f at GOMAXPROCS 1 and 2: the rectangle does not depend on
// the core count.
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// TestDetectMatchesReference is the detector differential over real content:
// every game's script at the three bench geometries, both client window
// sizes, one detector per window for the whole run so its kept planes are
// resized across geometries and arrive dirty. Rendering dominates the
// test's time (a 720p frame of the heavier games takes a fifth of a second),
// so it samples the 48 script frames: every 4th at 320×180, every 12th at
// 640×360, every 24th at 1280×720, and a quarter of that with -short.
// CHANGES.md records the one-off run of all 48 at every geometry.
func TestDetectMatchesReference(t *testing.T) {
	dets := map[int]*Detector{}
	for _, win := range []int{32, 64} {
		det, err := New(Config{WindowW: win, WindowH: win})
		if err != nil {
			t.Fatal(err)
		}
		dets[win] = det
	}
	sparse := 1
	if testing.Short() {
		sparse = 4
	}
	rd := &render.Renderer{}
	var out render.Output
	for _, g := range []struct{ w, h, step int }{{320, 180, 4}, {640, 360, 12}, {1280, 720, 24}} {
		for _, wl := range games.All() {
			for i := 0; i < 48; i += min(g.step*sparse, 48) {
				wl.RenderInto(&out, rd, i, g.w, g.h)
				for win, det := range dets {
					sameRect(t, det, out.Depth, fmt.Sprintf("%s frame %d at %dx%d window %d", wl.ID, i, g.w, g.h, win))
				}
			}
		}
	}
}

// craftedMaps are the depth maps rendered content does not produce: nothing
// classified as foreground (uniform, all-far, all-near), a map whose every
// foreground pixel has one depth (zero span), out-of-range and NaN samples,
// a strided map, and tall and wide geometries.
func craftedMaps() map[string]*frame.DepthMap {
	m := map[string]*frame.DepthMap{
		"blob":      blobMap(128, 96, 70, 40, 14, 14),
		"two blobs": blobMap(160, 120, 75, 55, 12, 12),
		"uniform":   frame.NewDepthMap(100, 100),
		"all far":   frame.NewDepthMap(96, 72),
		"all near":  frame.NewDepthMap(96, 72),
		"tall":      blobMap(40, 300, 10, 200, 20, 30),
		"wide":      blobMap(300, 33, 200, 5, 30, 20),
	}
	fillDepth(m["uniform"], 0.2)
	fillDepth(m["all far"], 1)
	blobs := m["two blobs"]
	for y := 10; y < 22; y++ {
		for x := 5; x < 17; x++ {
			blobs.Z[y*blobs.Stride+x] = 0.1
		}
	}
	rng := rand.New(rand.NewSource(8))
	noisy := frame.NewDepthMap(150, 90)
	for i := range noisy.Z {
		noisy.Z[i] = float32(rng.Float64()*1.4 - 0.2) // some samples outside [0, 1]
		if rng.Intn(50) == 0 {
			noisy.Z[i] = float32(math.NaN())
		}
	}
	m["noisy"] = noisy
	ramp := frame.NewDepthMap(120, 80)
	for i := range ramp.Z {
		ramp.Z[i] = float32(i%120) / 120
	}
	m["ramp"] = ramp
	// A view into a wider buffer: rows are Stride apart, not W.
	wide := blobMap(200, 90, 60, 30, 25, 25)
	m["strided"] = &frame.DepthMap{W: 130, H: 90, Stride: wide.Stride, Z: wide.Z[20:]}
	return m
}

// TestDetectMatchesReferenceCrafted covers the degenerate branches and the
// configuration space: default and randomised windows and strides on the
// crafted maps, at GOMAXPROCS 1 and 2.
func TestDetectMatchesReferenceCrafted(t *testing.T) {
	maps := craftedMaps()
	atProcs(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		cfgs := []Config{{WindowW: 16, WindowH: 16}, {WindowW: 33, WindowH: 20, FineStride: 1, Boundary: 64}}
		for i := 0; i < 12; i++ {
			cfgs = append(cfgs, Config{
				WindowW: 8 + rng.Intn(25), WindowH: 8 + rng.Intn(25),
				CoarseStride: rng.Intn(20), FineStride: rng.Intn(5), Boundary: rng.Intn(40),
			})
		}
		for _, cfg := range cfgs {
			det, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, d := range maps {
				sameRect(t, det, d, fmt.Sprintf("%s under %+v", name, cfg))
			}
		}
	})
}

// poison fills every kept plane of the detector's working set with values no
// pass may read back.
func poison(det *Detector) {
	det.mu.Lock()
	defer det.mu.Unlock()
	s := det.work
	for _, p := range [][]float64{s.hist[:], s.smooth[:], s.least[:], s.most[:], s.sums[:], s.sat.s[:cap(s.sat.s)]} {
		for i := range p {
			p[i] = math.NaN()
		}
	}
	for i := range s.counts {
		s.counts[i] = 0xC5C5
	}
	layer := s.layer[:cap(s.layer)]
	for i := range layer {
		layer[i] = 1
	}
}

// TestDetectDirtyScratch: the working set left in any state by an earlier call
// — here deliberately poisoned, and sized by a larger geometry — does not
// leak into the next result.
func TestDetectDirtyScratch(t *testing.T) {
	det, _ := New(Config{WindowW: 16, WindowH: 16})
	maps := craftedMaps()
	for _, name := range []string{"wide", "blob", "uniform", "all far", "noisy", "tall", "strided", "blob"} {
		poison(det)
		sameRect(t, det, maps[name], name+" on poisoned planes")
	}
}

// debugHash folds every product of a Debug into one number.
func debugHash(dbg *Debug) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, p := range [][]float64{dbg.Nearness, {dbg.Threshold}, dbg.Foreground, dbg.Weighted, dbg.LayerSums, dbg.SearchMap} {
		for _, v := range p {
			put(v)
		}
	}
	for _, l := range dbg.LayerOf {
		put(float64(l))
	}
	for _, v := range []int{dbg.W, dbg.H, dbg.Selected, dbg.Coarse.X, dbg.Coarse.Y, dbg.Coarse.W, dbg.Coarse.H, dbg.Fine.X, dbg.Fine.Y, dbg.Fine.W, dbg.Fine.H} {
		put(float64(v))
	}
	return h.Sum64()
}

// TestDetectDebugPlanesUnchanged pins DetectDebug's intermediate planes —
// the reference pipeline's every product — to hashes recorded before the
// pipeline was refactored around the fused passes (amd64; the planes are
// float64 arithmetic, so another architecture may round differently).
func TestDetectDebugPlanesUnchanged(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64")
	}
	wl, _ := games.ByID("G3")
	g3 := wl.Render(&render.Renderer{}, 30, 160, 90).Depth
	uniform := frame.NewDepthMap(96, 72)
	fillDepth(uniform, 0.9)
	for _, c := range []struct {
		name   string
		window int
		depth  *frame.DepthMap
		rect   frame.Rect
		hash   uint64
	}{
		{"G3 frame 30", 32, g3, frame.Rect{X: 64, Y: 36, W: 32, H: 32}, 0x66ab297a4cb67f19},
		{"blob", 16, blobMap(96, 72, 40, 30, 12, 12), frame.Rect{X: 40, Y: 28, W: 16, H: 16}, 0xfea3728acb7db896},
		{"uniform", 16, uniform, frame.Rect{X: 40, Y: 28, W: 16, H: 16}, 0x6131ff4dc72d0434},
	} {
		det, _ := New(Config{WindowW: c.window, WindowH: c.window})
		r, dbg, err := det.DetectDebug(c.depth)
		if err != nil {
			t.Fatal(err)
		}
		if r != c.rect || debugHash(dbg) != c.hash {
			t.Errorf("%s: rect %v hash %#x, recorded %v %#x", c.name, r, debugHash(dbg), c.rect, c.hash)
		}
		if fast, _ := det.Detect(c.depth); fast != c.rect {
			t.Errorf("%s: Detect = %v, recorded %v", c.name, fast, c.rect)
		}
	}
}

// TestDetectSteadyStateAllocs is the allocation gate: once the planes exist,
// a detection allocates (next to) nothing — the reference pipeline allocates
// six full-frame planes a call.
func TestDetectSteadyStateAllocs(t *testing.T) {
	wl, _ := games.ByID("G3")
	depth := wl.Render(&render.Renderer{}, 30, 320, 180).Depth
	det, _ := New(Config{WindowW: 64, WindowH: 64})
	if _, err := det.Detect(depth); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { det.Detect(depth) }); n > 2 {
		t.Errorf("steady-state Detect allocates %.0f objects per call, budget 2", n)
	}
}

// TestDetectConcurrent hammers two detectors from several goroutines over
// maps of different geometries: race-clean, and every result equal to the
// reference's.
func TestDetectConcurrent(t *testing.T) {
	det, _ := New(Config{WindowW: 24, WindowH: 24})
	half, _ := New(Config{WindowW: 12, WindowH: 12})
	maps := craftedMaps()
	type job struct {
		det   *Detector
		depth *frame.DepthMap
		want  frame.Rect
	}
	var jobs []job
	for _, name := range []string{"blob", "two blobs", "uniform", "noisy", "wide", "ramp"} {
		for _, d := range []*Detector{det, half} {
			want, _, err := d.detectReference(maps[name], false)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{d, maps[name], want})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(jobs); i++ {
				j := jobs[(i+g)%len(jobs)]
				if got, err := j.det.Detect(j.depth); err != nil || got != j.want {
					t.Errorf("goroutine %d: Detect = %v, %v; want %v", g, got, err, j.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBiasTableMatchesAt is the mirror argument, tested: for odd and even
// sizes in both axes, the quadrant table read at (min(x, W−1−x),
// min(y, H−1−y)) holds the bits centreBias.at returns at (x, y), for every
// pixel.
func TestBiasTableMatchesAt(t *testing.T) {
	for _, g := range [][2]int{{7, 5}, {8, 6}, {320, 180}, {641, 359}, {1, 1}, {2, 1}} {
		W, H := g[0], g[1]
		bias := newCentreBias(W, H)
		tab := newBiasTable(bias, W, H)
		if want := (W + 1) / 2 * ((H + 1) / 2); len(tab.v) != want {
			t.Fatalf("%dx%d: table of %d values, want the quadrant's %d", W, H, len(tab.v), want)
		}
		for y := 0; y < H; y++ {
			row := tab.row(y, H)
			for x := 0; x < W; x++ {
				if got, want := row[min(x, W-1-x)], bias.at(x, y); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%dx%d: table at (%d, %d) = %v, at = %v", W, H, x, y, got, want)
				}
			}
		}
	}
}

// TestDetectTableFollowsGeometry: one detector given two geometries in turn
// replaces its table each time the geometry changes, keeps it while it does
// not, and stays equal to the reference throughout.
func TestDetectTableFollowsGeometry(t *testing.T) {
	det, _ := New(Config{WindowW: 16, WindowH: 16})
	maps := craftedMaps()
	var last *biasTable
	for i, name := range []string{"blob", "blob", "wide", "blob", "tall", "tall", "strided", "noisy"} {
		d := maps[name]
		sameRect(t, det, d, name)
		tab := det.work.bias
		if tab.of != newCentreBias(d.W, d.H) {
			t.Fatalf("call %d (%s): the kept table is another geometry's", i, name)
		}
		if (i == 1 || i == 5) && tab != last {
			t.Errorf("call %d (%s): table rebuilt for an unchanged geometry", i, name)
		}
		last = tab
	}
}

// TestDetectConcurrentSharesTable: concurrent detections of one geometry
// take turns on the one working set and read one table — the one the first
// call built — under the race detector.
func TestDetectConcurrentSharesTable(t *testing.T) {
	det, _ := New(Config{WindowW: 24, WindowH: 24})
	depth := craftedMaps()["two blobs"]
	want, _, err := det.detectReference(depth, false)
	if err != nil {
		t.Fatal(err)
	}
	sameRect(t, det, depth, "first call")
	built := det.work.bias
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if got, err := det.Detect(depth); err != nil || got != want {
					t.Errorf("Detect = %v, %v; want %v", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if det.work.bias != built {
		t.Error("the table was rebuilt although the geometry never changed")
	}
}
