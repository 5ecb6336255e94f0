package render_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gamestreamsr/internal/games"
	"gamestreamsr/internal/geom"
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/render"
)

// sameFrame fails the test if the two renders differ in any colour byte or
// depth bit.
func sameFrame(t *testing.T, what string, got, want render.Output) {
	t.Helper()
	if !got.Color.Equal(want.Color) {
		for i := range got.Color.R {
			if got.Color.R[i] != want.Color.R[i] || got.Color.G[i] != want.Color.G[i] || got.Color.B[i] != want.Color.B[i] {
				t.Fatalf("%s: colour differs from the reference at pixel (%d,%d)", what, i%got.Color.W, i/got.Color.W)
			}
		}
		t.Fatalf("%s: colour geometry differs from the reference", what)
	}
	for i, z := range got.Depth.Z {
		if math.Float32bits(z) != math.Float32bits(want.Depth.Z[i]) {
			t.Fatalf("%s: depth differs from the reference at pixel (%d,%d): %v vs %v", what, i%got.Depth.W, i/got.Depth.W, z, want.Depth.Z[i])
		}
	}
}

// The shipped renderer against the per-pixel BVH walk it replaced: G1–G10
// over a ladder of frames (G10's barriers put coplanar box faces, hits of
// equal t whose winner is a matter of visit order, on most of them) at the
// two streamed geometries and an odd one. Run it at -cpu 1,2: the row chunks
// then fall to one goroutine and to two.
func TestRenderMatchesReference(t *testing.T) {
	step := 97
	if testing.Short() {
		step = 970
	}
	sizes := [][2]int{{320, 180}, {640, 360}, {333, 187}}
	fast, ref := &render.Renderer{}, render.Reference(render.Renderer{})
	for _, g := range games.All() {
		t.Run(g.ID, func(t *testing.T) {
			t.Parallel()
			var got, want render.Output
			for i := 0; i <= 2910; i += step {
				sc, cam := g.Frame(i)
				// Every size every frame would be minutes of reference
				// rendering; rotate instead, so each size sees each game on a
				// third of the ladder.
				size := sizes[(i/step)%len(sizes)]
				fast.RenderInto(&got, sc, cam, size[0], size[1])
				ref.RenderInto(&want, sc, cam, size[0], size[1])
				sameFrame(t, fmt.Sprintf("frame %d at %dx%d", i, size[0], size[1]), got, want)
			}
		})
	}
}

// wavyFloor is a Shape the renderer knows nothing about and that reports no
// bounds: a horizontal plane whose height depends on which way the ray
// points, so it cuts through the rest of the scene differently per pixel.
type wavyFloor struct{ y float64 }

func (f wavyFloor) Intersect(r geom.Ray, tMin, tMax float64) geom.Hit {
	h := geom.Plane{Y: f.y + 0.3*math.Sin(7*r.D.X)}.Intersect(r, tMin, tMax)
	return h
}

// ptrSphere is a bounded Shape outside the renderer's type switch.
type ptrSphere struct{ s *geom.Sphere }

func (p ptrSphere) Intersect(r geom.Ray, tMin, tMax float64) geom.Hit {
	return p.s.Intersect(r, tMin, tMax)
}
func (p ptrSphere) Bounds() geom.AABB { return p.s.Bounds() }

// randomScene builds a scene designed to be awkward: objects around, behind
// and across the eye plane, the eye inside a box, stacks of boxes sharing
// faces (equal t), flat boxes, slivers, shapes of types
// the renderer has no fast case for.
func randomScene(rng *rand.Rand) (*render.Scene, geom.Camera) {
	rv := func(s float64) geom.Vec3 {
		return geom.Vec3{X: (rng.Float64()*2 - 1) * s, Y: (rng.Float64()*2 - 1) * s, Z: (rng.Float64()*2 - 1) * s}
	}
	mat := func() render.Material {
		m := render.Material{Color: geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}, Seed: rng.Int63n(1000)}
		if rng.Intn(4) != 0 {
			m.TexScale, m.TexAmp, m.Octaves = 0.3+rng.Float64()*4, rng.Float64(), rng.Intn(7)
		}
		return m
	}
	eye := rv(3)
	target := eye.Add(rv(1)).Add(geom.Vec3{Z: 6})
	if rng.Intn(8) == 0 {
		target = eye.Add(geom.Vec3{Y: 1 - 2*float64(rng.Intn(2))}) // straight up or down
	}
	cam := geom.NewCamera(eye, target, 20+rng.Float64()*120, 0.5+rng.Float64()*2)

	sc := &render.Scene{
		Light: rv(1).Normalize(), Ambient: rng.Float64() * 0.5,
		SkyTop: geom.Vec3{X: 0.2, Y: 0.4, Z: 0.9}, SkyBottom: geom.Vec3{X: 0.8, Y: 0.8, Z: 0.9},
		Near: 0.05 + rng.Float64()*0.2, Far: 30 + rng.Float64()*100,
	}
	if rng.Intn(3) == 0 {
		sc.LODBias = 0.25 + rng.Float64()*3
	}
	add := func(s render.Shape) {
		sc.Objects = append(sc.Objects, render.Object{Shape: s, Mat: mat(), Emissive: rng.Intn(6) == 0})
	}
	n := rng.Intn(40)
	for i := 0; i < n; i++ {
		// Centres all around the eye, so some objects are behind it and
		// some straddle the eye plane.
		c := eye.Add(rv(14))
		switch rng.Intn(9) {
		case 0, 1:
			add(geom.Sphere{C: c, R: 0.2 + rng.Float64()*3})
		case 2, 3:
			// Well-formed (Min ≤ Max): the BVH's unions, and so the
			// reference's pruning, mean nothing for a box that is not.
			e := rv(2.5)
			e = geom.Vec3{X: math.Abs(e.X), Y: math.Abs(e.Y), Z: math.Abs(e.Z)}
			add(geom.AABB{Min: c.Sub(e), Max: c.Add(e)})
		case 4:
			add(geom.Triangle{A: c, B: c.Add(rv(3)), C: c.Add(rv(3))})
		case 5: // a stack of boxes sharing faces, some coincident
			e := geom.Vec3{X: 0.5 + rng.Float64(), Y: 0.5 + rng.Float64(), Z: 0.5 + rng.Float64()}
			for k := 0; k < 2+rng.Intn(3); k++ {
				off := geom.Vec3{X: float64(k) * 2 * e.X}
				if rng.Intn(3) == 0 {
					off = geom.Vec3{}
				}
				add(geom.AABB{Min: c.Add(off).Sub(e), Max: c.Add(off).Add(e)})
			}
		case 6: // flat, and a box around the eye
			add(geom.AABB{Min: c, Max: c.Add(geom.Vec3{X: 2, Z: 2})})
			add(geom.AABB{Min: eye.Sub(geom.Vec3{X: 1, Y: 1, Z: 1}), Max: eye.Add(geom.Vec3{X: 1 + rng.Float64(), Y: 1, Z: 1})})
		case 7:
			s := geom.Sphere{C: c, R: 0.5 + rng.Float64()*2}
			add(ptrSphere{&s})
			add(geom.Sphere{C: eye.Add(rv(0.5)), R: 1 + rng.Float64()}) // the eye is inside
		default:
			add(geom.Plane{Y: c.Y}) // a typed shape without bounds
			add(wavyFloor{y: eye.Y - 1 - rng.Float64()*3})
		}
	}
	switch rng.Intn(4) {
	case 0:
	case 1:
		sc.Ground = &render.Object{Shape: wavyFloor{y: eye.Y - 2}, Mat: mat()}
	default:
		sc.Ground = &render.Object{Shape: geom.Plane{Y: eye.Y - 0.5 - rng.Float64()*4}, Mat: mat()}
	}
	return sc, cam
}

// The same comparison over seeded random scenes, including supersampled
// renders and a scheduler with no pool goroutines.
func TestRenderMatchesReferenceRandomScenes(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	one := parallel.NewScheduler(1).NewClient(parallel.ClientConfig{Name: "one"})
	var got, want render.Output
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		sc, cam := randomScene(rng)
		w, h := 16+rng.Intn(120), 9+rng.Intn(70)
		rd := render.Renderer{}
		if trial%5 == 0 {
			rd.SSAA = 2
		}
		if trial%3 == 0 {
			rd.Sched = one
		}
		rd.RenderInto(&got, sc, cam, w, h)
		render.Reference(rd).RenderInto(&want, sc, cam, w, h)
		sameFrame(t, fmt.Sprintf("trial %d (%d objects, %dx%d, ssaa %d)", trial, len(sc.Objects), w, h, rd.SSAA), got, want)
	}
}

// The renderer's own state is all in the Output: a frame into a warm Output
// allocates nothing, and Render hands back planes without the workspace.
func TestRenderIntoSteadyStateAllocs(t *testing.T) {
	g, err := games.ByID("G3")
	if err != nil {
		t.Fatal(err)
	}
	sc, cam := g.Frame(30)
	rd := &render.Renderer{}
	var out render.Output
	rd.RenderInto(&out, sc, cam, 160, 90)
	if n := testing.AllocsPerRun(10, func() { rd.RenderInto(&out, sc, cam, 160, 90) }); n != 0 {
		t.Errorf("RenderInto allocates %.0f objects a frame in steady state, want 0", n)
	}
	fresh := rd.Render(sc, cam, 160, 90)
	if !fresh.Color.Equal(out.Color) || !slices.Equal(fresh.Depth.Z, out.Depth.Z) {
		t.Error("Render and RenderInto disagree")
	}
}

func benchRender(b *testing.B, rd *render.Renderer, w, h int) {
	g, err := games.ByID("G3")
	if err != nil {
		b.Fatal(err)
	}
	var out render.Output
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, cam := g.Frame(i % 240)
		rd.RenderInto(&out, sc, cam, w, h)
	}
}

// G3 at the live workloads' geometry, at the paper's, and in the engine's
// ground-truth form (the measure stage renders the 2× frame of a 320×180
// stream into an Output of its own) — each on the shipped path and on the
// reference, so the distance between them is one command away. 1440p is the
// paper's display geometry, shipped path only: over 720p it is the
// wall-clock form of §IV-B2's render-low-then-upscale premise
// (EXPERIMENTS.md, misc).
func BenchmarkRenderG3_360p(b *testing.B)  { benchRender(b, &render.Renderer{}, 640, 360) }
func BenchmarkRenderG3_720p(b *testing.B)  { benchRender(b, &render.Renderer{}, 1280, 720) }
func BenchmarkRenderG3_1440p(b *testing.B) { benchRender(b, &render.Renderer{}, 2560, 1440) }
func BenchmarkRenderGT360p(b *testing.B)   { benchRenderGT(b, &render.Renderer{}) }

func BenchmarkRenderG3_360pReference(b *testing.B) {
	benchRender(b, render.Reference(render.Renderer{}), 640, 360)
}
func BenchmarkRenderG3_720pReference(b *testing.B) {
	benchRender(b, render.Reference(render.Renderer{}), 1280, 720)
}
func BenchmarkRenderGT360pReference(b *testing.B) {
	benchRenderGT(b, render.Reference(render.Renderer{}))
}

// benchRenderGT alternates the stream-size render and the ground-truth
// render of the same scene, as the engine's server and measure stages do,
// each into its own Output.
func benchRenderGT(b *testing.B, rd *render.Renderer) {
	g, err := games.ByID("G3")
	if err != nil {
		b.Fatal(err)
	}
	var srv, gt render.Output
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, cam := g.Frame(i % 240)
		rd.RenderInto(&srv, sc, cam, 320, 180)
		rd.RenderInto(&gt, sc, cam, 640, 360)
	}
}
