package render

import (
	"slices"

	"gamestreamsr/internal/geom"
)

// Bounding volume hierarchy over the scene's bounded objects: a median-split
// tree whose traversal computes *exactly* the same nearest hit as a linear
// scan in leaf order (pruning only discards objects whose bounds cannot beat
// the current best t), which the equivalence property test pins down.
//
// The shipped renderer no longer walks it per pixel (see raster.go); it is
// built every frame because its leaf order, objIdx, is the order in which
// objects are visited, and so decides the winner among hits of equal t. The
// walk itself, nearest, is the reference the binned path is tested against.
//
// Objects whose Shape does not implement geom.Bounded (user-supplied custom
// shapes) are visited after the tree, in scene order.

// bvhNode is one node of the flattened tree. Leaves hold an index range
// into the object permutation; interior nodes hold a child offset.
type bvhNode struct {
	bounds geom.AABB
	// For leaves: start/count into objIdx. For interior nodes: count == 0
	// and right is the index of the right child (left child is the next
	// array element).
	start, count int
	right        int
}

// bvh accelerates nearest-hit queries over a fixed set of objects. Its
// slices are reused from one rebuild to the next.
type bvh struct {
	nodes  []bvhNode
	objIdx []int // permutation of bounded-object indices
}

// buildItem pairs an object index with its precomputed bounds.
type buildItem struct {
	idx    int
	bounds geom.AABB
	center geom.Vec3
}

const bvhLeafSize = 2

// rebuild replaces the hierarchy with one over the given items, which it
// reorders.
func (b *bvh) rebuild(items []buildItem) {
	b.nodes, b.objIdx = b.nodes[:0], b.objIdx[:0]
	if len(items) > 0 {
		b.build(items)
	}
}

func (b *bvh) build(items []buildItem) int {
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

	// Split at the median along the longest axis of the centroid extent.
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
	// The permutation this sort leaves among equal and near-equal centres is
	// part of the output (it is the visit order): slices.SortFunc runs the
	// same pdqsort as the sort.Slice it replaced, without the reflection
	// swapper, and TestBVHBuildMatchesSortSlice holds it to that.
	slices.SortFunc(items, byCenter[axis])
	mid := len(items) / 2

	b.build(items[:mid])
	right := b.build(items[mid:])
	b.nodes[self].right = right
	return self
}

// byCenter orders build items along one axis. Only "less" is reported, as
// sort.Slice's callback did, so NaN centres compare the way they used to.
var byCenter = [3]func(a, b buildItem) int{
	func(a, b buildItem) int { return lessInt(a.center.X < b.center.X) },
	func(a, b buildItem) int { return lessInt(a.center.Y < b.center.Y) },
	func(a, b buildItem) int { return lessInt(a.center.Z < b.center.Z) },
}

func lessInt(less bool) int {
	if less {
		return -1
	}
	return 0
}

// nearest traverses the hierarchy and refines (bestHit, bestIdx) with the
// nearest intersection among the indexed objects. objs is the scene's
// object slice; the returned index refers into it (-1 if no hit improved).
func (b *bvh) nearest(objs []Object, r geom.Ray, tMin float64, best geom.Hit, bestIdx int) (geom.Hit, int) {
	if len(b.nodes) == 0 {
		return best, bestIdx
	}
	// Manual stack of node indices; node 0 is the root. Nodes are laid
	// out parent, left subtree, right subtree, so the left child of node
	// i is i+1 and the right child index is stored explicitly.
	var stack [64]int
	sp := 0
	stack[sp] = 0
	sp++
	for sp > 0 {
		sp--
		ni := stack[sp]
		n := &b.nodes[ni]
		if !n.bounds.HitRange(r, tMin, best.T) {
			continue
		}
		if n.count > 0 {
			for _, oi := range b.objIdx[n.start : n.start+n.count] {
				if h := objs[oi].Shape.Intersect(r, tMin, best.T); h.OK {
					best = h
					bestIdx = oi
				}
			}
			continue
		}
		stack[sp] = n.right
		sp++
		stack[sp] = ni + 1
		sp++
	}
	return best, bestIdx
}
