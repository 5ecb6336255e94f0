package render

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gamestreamsr/internal/geom"
)

// randomItems builds n random bounded shapes as scene objects.
func randomObjects(n int, seed int64) []Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]Object, n)
	for i := range objs {
		c := geom.Vec3{X: rng.Float64()*40 - 20, Y: rng.Float64() * 10, Z: rng.Float64() * 80}
		switch i % 3 {
		case 0:
			objs[i] = Object{Shape: geom.Sphere{C: c, R: 0.3 + rng.Float64()*2}}
		case 1:
			ext := geom.Vec3{X: 0.5 + rng.Float64()*2, Y: 0.5 + rng.Float64()*2, Z: 0.5 + rng.Float64()*2}
			objs[i] = Object{Shape: geom.AABB{Min: c.Sub(ext), Max: c.Add(ext)}}
		default:
			objs[i] = Object{Shape: geom.Triangle{
				A: c,
				B: c.Add(geom.Vec3{X: rng.Float64()*3 - 1.5, Y: rng.Float64() * 2, Z: rng.Float64()*3 - 1.5}),
				C: c.Add(geom.Vec3{X: rng.Float64()*3 - 1.5, Y: rng.Float64() * 2, Z: rng.Float64()*3 - 1.5}),
			}}
		}
	}
	return objs
}

// bruteNearest is the reference linear scan.
func bruteNearest(objs []Object, r geom.Ray, tMin, tMax float64) (geom.Hit, int) {
	best := geom.Hit{T: tMax}
	idx := -2
	for i := range objs {
		if h := objs[i].Shape.Intersect(r, tMin, best.T); h.OK {
			best = h
			idx = i
		}
	}
	return best, idx
}

// The load-bearing property: BVH traversal returns exactly the same
// nearest hit as the linear scan, for random scenes and random rays.
func TestBVHMatchesBruteForce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 40, 200} {
		objs := randomObjects(n, int64(n))
		var tree bvh
		tree.rebuild(boundedItems(objs))
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 500; trial++ {
			o := geom.Vec3{X: rng.Float64()*60 - 30, Y: rng.Float64()*30 - 5, Z: rng.Float64()*120 - 20}
			d := geom.Vec3{X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1, Z: rng.Float64()*2 - 1}.Normalize()
			if d == (geom.Vec3{}) {
				continue
			}
			r := geom.Ray{O: o, D: d}
			wantHit, wantIdx := bruteNearest(objs, r, 1e-4, 1e9)
			gotHit, gotIdx := tree.nearest(objs, r, 1e-4, geom.Hit{T: 1e9}, -2)
			if wantIdx != gotIdx {
				t.Fatalf("n=%d trial %d: BVH hit object %d, brute force %d", n, trial, gotIdx, wantIdx)
			}
			if wantIdx >= 0 && wantHit.T != gotHit.T {
				t.Fatalf("n=%d trial %d: t differs: %v vs %v", n, trial, gotHit.T, wantHit.T)
			}
		}
	}
}

func TestBVHEmpty(t *testing.T) {
	var tree bvh
	tree.rebuild(nil)
	if len(tree.nodes) != 0 || len(tree.objIdx) != 0 {
		t.Fatal("empty build should leave no nodes")
	}
	h, idx := tree.nearest(nil, geom.Ray{D: geom.Vec3{Z: 1}}, 0, geom.Hit{T: 100}, -2)
	if idx != -2 || h.T != 100 {
		t.Fatal("empty tree must be a no-op")
	}
	// A rebuild forgets the previous frame's tree.
	objs := randomObjects(5, 1)
	tree.rebuild(boundedItems(objs))
	tree.rebuild(nil)
	if len(tree.nodes) != 0 || len(tree.objIdx) != 0 {
		t.Fatal("rebuild over nothing kept nodes")
	}
}

// boundedItems returns the build items of objs, all of which are bounded.
func boundedItems(objs []Object) []buildItem {
	items := make([]buildItem, len(objs))
	for i := range objs {
		b := objs[i].Shape.(geom.Bounded).Bounds()
		items[i] = buildItem{idx: i, bounds: b, center: b.Center()}
	}
	return items
}

// sortSliceBuild is bvh.build as it was when it sorted with sort.Slice: the
// definition of the leaf order, which is the renderer's visit order.
func (b *bvh) sortSliceBuild(items []buildItem) int {
	node := bvhNode{bounds: items[0].bounds}
	for _, it := range items[1:] {
		node.bounds = node.bounds.Union(it.bounds)
	}
	self := len(b.nodes)
	b.nodes = append(b.nodes, node)
	if len(items) <= bvhLeafSize {
		b.nodes[self].start = len(b.objIdx)
		b.nodes[self].count = len(items)
		for _, it := range items {
			b.objIdx = append(b.objIdx, it.idx)
		}
		return self
	}
	lo, hi := items[0].center, items[0].center
	for _, it := range items[1:] {
		lo = geom.Vec3{X: min(lo.X, it.center.X), Y: min(lo.Y, it.center.Y), Z: min(lo.Z, it.center.Z)}
		hi = geom.Vec3{X: max(hi.X, it.center.X), Y: max(hi.Y, it.center.Y), Z: max(hi.Z, it.center.Z)}
	}
	ext := hi.Sub(lo)
	axis := 0
	if ext.Y > ext.X && ext.Y >= ext.Z {
		axis = 1
	} else if ext.Z > ext.X && ext.Z > ext.Y {
		axis = 2
	}
	at := func(v geom.Vec3) float64 { return [3]float64{v.X, v.Y, v.Z}[axis] }
	sort.Slice(items, func(i, j int) bool { return at(items[i].center) < at(items[j].center) })
	mid := len(items) / 2
	b.sortSliceBuild(items[:mid])
	b.nodes[self].right = b.sortSliceBuild(items[mid:])
	return self
}

// The sort inside the build was replaced to stop it allocating; the tree it
// produces must not have noticed. Scenes with many equal centres (where an
// unstable sort is free to differ) and with NaN centres are the point.
func TestBVHBuildMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(80)
		if trial%40 == 0 {
			n = 500 + rng.Intn(1500)
		}
		objs := randomObjects(n, int64(trial))
		items := boundedItems(objs)
		switch trial % 4 {
		case 1: // a lattice: ties on every axis
			for i := range items {
				items[i].center = geom.Vec3{X: float64(rng.Intn(4)), Y: float64(rng.Intn(3)), Z: float64(rng.Intn(5))}
			}
		case 2: // one axis constant, another nearly so
			for i := range items {
				items[i].center.Y, items[i].center.X = 1, float64(rng.Intn(2))
			}
		case 3: // unordered values
			for i := range items {
				if rng.Intn(5) == 0 {
					items[i].center.Z = math.NaN()
				}
			}
		}
		want := &bvh{}
		want.sortSliceBuild(slices.Clone(items))
		var got bvh
		got.rebuild(items)
		if !slices.Equal(got.objIdx, want.objIdx) {
			t.Fatalf("trial %d (n=%d): leaf order differs from the sort.Slice build", trial, n)
		}
		if len(got.nodes) != len(want.nodes) {
			t.Fatalf("trial %d: %d nodes, want %d", trial, len(got.nodes), len(want.nodes))
		}
		for i := range got.nodes {
			g, w := got.nodes[i], want.nodes[i]
			if g.start != w.start || g.count != w.count || g.right != w.right || !sameBox(g.bounds, w.bounds) {
				t.Fatalf("trial %d: node %d differs", trial, i)
			}
		}
		// buildPrims reads the leaf order off the reordered items.
		for k, it := range items {
			if it.idx != got.objIdx[k] {
				t.Fatalf("trial %d: items[%d] is object %d, leaf order says %d", trial, k, it.idx, got.objIdx[k])
			}
		}
	}
}

// sameBox compares bit patterns, so NaN bounds equal themselves.
func sameBox(a, b geom.AABB) bool {
	bits := func(v geom.Vec3) [3]uint64 {
		return [3]uint64{math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)}
	}
	return bits(a.Min) == bits(b.Min) && bits(a.Max) == bits(b.Max)
}

// A rebuild in place allocates nothing once its slices have grown.
func TestBuildAccelSteadyStateAllocs(t *testing.T) {
	sc := &Scene{Objects: randomObjects(60, 3)}
	sc.Objects = append(sc.Objects, Object{Shape: opaqueShape{geom.Plane{Y: -1}}})
	fs := newFrameScratch()
	fs.buildAccel(sc)
	if n := testing.AllocsPerRun(10, func() { fs.buildAccel(sc) }); n != 0 {
		t.Errorf("buildAccel allocates %.0f objects a frame in steady state, want 0", n)
	}
	if len(fs.unbounded) != 1 || len(fs.tree.objIdx) != 60 {
		t.Errorf("partition: %d unbounded, %d in the tree", len(fs.unbounded), len(fs.tree.objIdx))
	}
}

func TestBVHRendersIdenticalImages(t *testing.T) {
	// Full-scene check: the BVH-backed renderer must produce bit-identical
	// frames to a brute-force shade over a custom unbounded-shape path.
	// We compare against a scene whose objects are wrapped in a type that
	// hides the Bounded interface, forcing the linear path.
	sc := testScene()
	cam := testCam(16.0 / 9)
	fast := (&Renderer{}).Render(sc, cam, 160, 90)

	lin := &Scene{
		Ground: sc.Ground, Light: sc.Light, Ambient: sc.Ambient,
		SkyTop: sc.SkyTop, SkyBottom: sc.SkyBottom, Near: sc.Near, Far: sc.Far,
	}
	for _, o := range sc.Objects {
		lin.Objects = append(lin.Objects, Object{Shape: opaqueShape{o.Shape}, Mat: o.Mat, Emissive: o.Emissive})
	}
	slow := (&Renderer{}).Render(lin, cam, 160, 90)
	if !fast.Color.Equal(slow.Color) {
		t.Fatal("BVH changed rendered pixels")
	}
	for i := range fast.Depth.Z {
		if fast.Depth.Z[i] != slow.Depth.Z[i] {
			t.Fatalf("BVH changed depth at %d", i)
		}
	}
}

// opaqueShape hides the Bounded interface of the wrapped shape.
type opaqueShape struct {
	inner Shape
}

func (o opaqueShape) Intersect(r geom.Ray, tMin, tMax float64) geom.Hit {
	return o.inner.Intersect(r, tMin, tMax)
}

func TestBVHBoundsHelpers(t *testing.T) {
	s := geom.Sphere{C: geom.Vec3{X: 1, Y: 2, Z: 3}, R: 2}
	b := s.Bounds()
	if b.Min != (geom.Vec3{X: -1, Y: 0, Z: 1}) || b.Max != (geom.Vec3{X: 3, Y: 4, Z: 5}) {
		t.Errorf("sphere bounds = %+v", b)
	}
	u := b.Union(geom.AABB{Min: geom.Vec3{X: -5}, Max: geom.Vec3{X: 0, Y: 9, Z: 2}})
	if u.Min.X != -5 || u.Max.Y != 9 || u.Max.Z != 5 {
		t.Errorf("union = %+v", u)
	}
	c := b.Center()
	if c != (geom.Vec3{X: 1, Y: 2, Z: 3}) {
		t.Errorf("center = %+v", c)
	}
	tr := geom.Triangle{A: geom.Vec3{X: 1}, B: geom.Vec3{Y: 2}, C: geom.Vec3{Z: -3}}
	tb := tr.Bounds()
	if tb.Min != (geom.Vec3{Z: -3}) || tb.Max != (geom.Vec3{X: 1, Y: 2}) {
		t.Errorf("triangle bounds = %+v", tb)
	}
}

func TestHitRangeIncludesInterior(t *testing.T) {
	b := geom.AABB{Min: geom.Vec3{X: -1, Y: -1, Z: -1}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	// Origin inside: HitRange must be true (Intersect is false by design).
	r := geom.Ray{O: geom.Vec3{}, D: geom.Vec3{Z: 1}}
	if !b.HitRange(r, 1e-9, 100) {
		t.Error("interior origin should hit the range")
	}
	if b.Intersect(r, 1e-9, 100).OK {
		t.Error("shading intersect should still exclude interior origins")
	}
	// Behind the box.
	back := geom.Ray{O: geom.Vec3{Z: 5}, D: geom.Vec3{Z: 1}}
	if b.HitRange(back, 1e-9, 100) {
		t.Error("ray pointing away should miss")
	}
	// Parallel outside the slab.
	if b.HitRange(geom.Ray{O: geom.Vec3{X: 3}, D: geom.Vec3{Z: 1}}, 1e-9, 100) {
		t.Error("parallel outside should miss")
	}
}

func BenchmarkRenderBinnedVsLinear(b *testing.B) {
	// The payoff of candidate rectangles on a game-sized scene (60 objects),
	// against the same shapes with their bounds hidden (every pixel tests
	// every object).
	objs := randomObjects(60, 5)
	sc := &Scene{Objects: objs, Light: geom.Vec3{Y: 1}, Near: 0.1, Far: 200}
	cam := geom.NewCamera(geom.Vec3{Y: 3, Z: -10}, geom.Vec3{Z: 40}, 60, 16.0/9)
	b.Run("binned", func(b *testing.B) {
		rd := &Renderer{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.Render(sc, cam, 160, 90)
		}
	})
	lin := &Scene{Light: sc.Light, Near: sc.Near, Far: sc.Far}
	for _, o := range objs {
		lin.Objects = append(lin.Objects, Object{Shape: opaqueShape{o.Shape}, Mat: o.Mat})
	}
	b.Run("linear", func(b *testing.B) {
		rd := &Renderer{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.Render(lin, cam, 160, 90)
		}
	})
}
