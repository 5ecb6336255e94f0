package render

import (
	"math"
	"slices"
	"testing"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/geom"
	"gamestreamsr/internal/parallel"
)

func testScene() *Scene {
	return &Scene{
		Objects: []Object{
			{
				Shape: geom.Sphere{C: geom.Vec3{X: 0, Y: 1, Z: 8}, R: 2},
				Mat:   Material{Color: geom.Vec3{X: 0.8, Y: 0.2, Z: 0.2}, TexScale: 2, TexAmp: 0.6, Octaves: 4, Seed: 3},
			},
			{
				Shape: geom.AABB{Min: geom.Vec3{X: 5, Y: 0, Z: 40}, Max: geom.Vec3{X: 9, Y: 6, Z: 44}},
				Mat:   Material{Color: geom.Vec3{X: 0.3, Y: 0.3, Z: 0.8}, TexScale: 1, TexAmp: 0.5, Octaves: 4, Seed: 4},
			},
		},
		Ground:    &Object{Shape: geom.Plane{Y: 0}, Mat: Material{Color: geom.Vec3{X: 0.4, Y: 0.5, Z: 0.3}, TexScale: 0.7, TexAmp: 0.8, Octaves: 5, Seed: 9}},
		Light:     geom.Vec3{X: 0.4, Y: 0.8, Z: -0.2}.Normalize(),
		Ambient:   0.25,
		SkyTop:    geom.Vec3{X: 0.3, Y: 0.5, Z: 0.9},
		SkyBottom: geom.Vec3{X: 0.8, Y: 0.85, Z: 0.95},
		Near:      0.1,
		Far:       100,
	}
}

func testCam(aspect float64) geom.Camera {
	return geom.NewCamera(geom.Vec3{X: 0, Y: 2, Z: 0}, geom.Vec3{X: 0, Y: 1, Z: 10}, 60, aspect)
}

func TestRenderProducesBothBuffers(t *testing.T) {
	rd := &Renderer{}
	out := rd.Render(testScene(), testCam(16.0/9), 160, 90)
	if out.Color.W != 160 || out.Color.H != 90 {
		t.Fatalf("color size %dx%d", out.Color.W, out.Color.H)
	}
	if out.Depth.W != 160 || out.Depth.H != 90 {
		t.Fatalf("depth size %dx%d", out.Depth.W, out.Depth.H)
	}
}

func TestRenderDeterministic(t *testing.T) {
	rd := &Renderer{}
	a := rd.Render(testScene(), testCam(16.0/9), 120, 68)
	b := rd.Render(testScene(), testCam(16.0/9), 120, 68)
	if !a.Color.Equal(b.Color) {
		t.Fatal("renders differ between runs")
	}
	for i := range a.Depth.Z {
		if a.Depth.Z[i] != b.Depth.Z[i] {
			t.Fatalf("depth differs at %d", i)
		}
	}
	// Worker count must not change the output: a one-worker scheduler runs
	// every row inline, as one chunk.
	c := (&Renderer{Sched: oneWorker()}).Render(testScene(), testCam(16.0/9), 120, 68)
	if !a.Color.Equal(c.Color) || !slices.Equal(a.Depth.Z, c.Depth.Z) {
		t.Fatal("parallelism changed pixels")
	}
}

// oneWorker returns a client of a scheduler with no pool goroutines.
func oneWorker() *parallel.Client {
	return parallel.NewScheduler(1).NewClient(parallel.ClientConfig{Name: "one"})
}

func TestDepthBufferSemantics(t *testing.T) {
	rd := &Renderer{}
	out := rd.Render(testScene(), testCam(16.0/9), 160, 90)
	// The sphere sits 8 units out, center of frame: depth there must be
	// small (near). The sky at the top must be at the far plane (1.0).
	cx, cy := 80, 50
	if d := depthAt(out.Depth, cx, cy); d > 0.3 {
		t.Errorf("sphere depth = %f, want near", d)
	}
	if d := depthAt(out.Depth, 80, 2); d < 0.99 {
		t.Errorf("sky depth = %f, want 1.0", d)
	}
	// Monotonicity along the ground: rows lower in the image are nearer.
	dNear := depthAt(out.Depth, 10, 88)
	dFar := depthAt(out.Depth, 10, 60)
	if dNear >= dFar {
		t.Errorf("ground depth not increasing with distance: near=%f far=%f", dNear, dFar)
	}
}

func TestSkyGradient(t *testing.T) {
	sc := testScene()
	sc.Objects = nil
	sc.Ground = nil
	out := (&Renderer{}).Render(sc, testCam(1), 64, 64)
	_, _, bTop := at(out.Color, 32, 1)
	_, _, bBot := at(out.Color, 32, 62)
	if bTop == bBot {
		t.Error("sky gradient is flat")
	}
	for i := range out.Depth.Z {
		if out.Depth.Z[i] != 1 {
			t.Fatal("empty scene should have far-plane depth everywhere")
		}
	}
}

func TestLODAttenuatesDetail(t *testing.T) {
	// Render the textured ground and compare high-frequency energy of a
	// nearby strip vs a distant strip. The LOD analogue must make the
	// distant strip smoother.
	sc := testScene()
	sc.Objects = nil
	out := (&Renderer{}).Render(sc, testCam(16.0/9), 320, 180)
	nearE := rowDetail(out, 170)
	farE := rowDetail(out, 96)
	if nearE <= farE {
		t.Errorf("near detail %f should exceed far detail %f", nearE, farE)
	}
}

// at returns the RGB triple at (x, y).
func at(im *frame.Image, x, y int) (r, g, b uint8) {
	i := y*im.Stride + x
	return im.R[i], im.G[i], im.B[i]
}

// depthAt returns the depth at (x, y).
func depthAt(d *frame.DepthMap, x, y int) float32 { return d.Z[y*d.Stride+x] }

// rowDetail measures mean absolute horizontal luma gradient along a row.
func rowDetail(out Output, y int) float64 {
	im := out.Color
	sum := 0.0
	for x := 1; x < im.W; x++ {
		r0, g0, b0 := at(im, x-1, y)
		r1, g1, b1 := at(im, x, y)
		l0 := 0.299*float64(r0) + 0.587*float64(g0) + 0.114*float64(b0)
		l1 := 0.299*float64(r1) + 0.587*float64(g1) + 0.114*float64(b1)
		sum += math.Abs(l1 - l0)
	}
	return sum / float64(im.W-1)
}

func TestEmissiveIgnoresLighting(t *testing.T) {
	sc := &Scene{
		Objects: []Object{{
			Shape:    geom.Sphere{C: geom.Vec3{Z: 5}, R: 1},
			Mat:      Material{Color: geom.Vec3{X: 1, Y: 1, Z: 1}},
			Emissive: true,
		}},
		// Light pointing away: a lit object would be ambient-dark.
		Light:   geom.Vec3{Z: 1},
		Ambient: 0.1,
		Near:    0.1, Far: 100,
	}
	cam := geom.NewCamera(geom.Vec3{}, geom.Vec3{Z: 5}, 60, 1)
	out := (&Renderer{}).Render(sc, cam, 32, 32)
	r, _, _ := at(out.Color, 16, 16)
	if r != 255 {
		t.Errorf("emissive sphere should be full-bright, got %d", r)
	}
}

func TestSceneDefaults(t *testing.T) {
	// Zero Near/Far/LODRef must be defaulted, not crash or divide by zero.
	sc := &Scene{
		Objects: []Object{{
			Shape: geom.Sphere{C: geom.Vec3{Z: 5}, R: 1},
			Mat:   Material{Color: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}},
		}},
		Light: geom.Vec3{Y: 1},
	}
	cam := geom.NewCamera(geom.Vec3{}, geom.Vec3{Z: 5}, 60, 1)
	out := (&Renderer{}).Render(sc, cam, 16, 16)
	d := depthAt(out.Depth, 8, 8)
	if math.IsNaN(float64(d)) || d <= 0 || d >= 1 {
		t.Errorf("defaulted depth = %f, want interior value", d)
	}
}

func TestNoiseProperties(t *testing.T) {
	// Range check and determinism.
	for i := 0; i < 1000; i++ {
		x := float64(i) * 0.37
		y := float64(i) * 0.91
		v := valueNoise(x, y, 42)
		if v < 0 || v >= 1.0001 {
			t.Fatalf("noise out of range: %f", v)
		}
		if v != valueNoise(x, y, 42) {
			t.Fatal("noise not deterministic")
		}
	}
	// Different seeds decorrelate.
	same := 0
	for i := 0; i < 100; i++ {
		x := float64(i) * 1.7
		if math.Abs(valueNoise(x, x, 1)-valueNoise(x, x, 2)) < 1e-9 {
			same++
		}
	}
	if same > 5 {
		t.Errorf("seeds look correlated: %d identical samples", same)
	}
}

func TestNoiseContinuity(t *testing.T) {
	// Value noise must be continuous across lattice boundaries.
	for _, x := range []float64{1, 2, 3, -1} {
		lo := valueNoise(x-1e-6, 0.5, 7)
		hi := valueNoise(x+1e-6, 0.5, 7)
		if math.Abs(lo-hi) > 1e-3 {
			t.Errorf("noise discontinuous at x=%f: %f vs %f", x, lo, hi)
		}
	}
}

func TestFBMBandLimit(t *testing.T) {
	// A tight band limit must yield a smoother signal (lower variance of
	// the derivative) than an unlimited one.
	varOf := func(maxFreq float64) float64 {
		prev := fbm(0, 0, 5, 11, maxFreq)
		sum := 0.0
		n := 400
		for i := 1; i <= n; i++ {
			v := fbm(float64(i)*0.13, 0.7, 5, 11, maxFreq)
			d := v - prev
			sum += d * d
			prev = v
		}
		return sum / float64(n)
	}
	if varOf(1.5) >= varOf(1e9) {
		t.Error("band-limited fbm should be smoother than unlimited")
	}
	// Fully cut: constant mean, zero variance.
	if v := varOf(0.0001); v > 1e-12 {
		t.Errorf("fully band-limited fbm should be constant, var=%g", v)
	}
}

func TestOctaveWeight(t *testing.T) {
	if octaveWeight(1, 0) != 0 {
		t.Error("non-positive band limit should zero all octaves")
	}
	if octaveWeight(1, 10) != 1 {
		t.Error("low frequency should have full weight")
	}
	if octaveWeight(10, 10) != 0 {
		t.Error("frequency at the limit should be cut")
	}
	if w := octaveWeight(7.5, 10); w <= 0 || w >= 1 {
		t.Errorf("transition weight = %f, want in (0,1)", w)
	}
}

func BenchmarkRender360p(b *testing.B) {
	sc := testScene()
	cam := testCam(16.0 / 9)
	rd := &Renderer{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rd.Render(sc, cam, 640, 360)
	}
}
