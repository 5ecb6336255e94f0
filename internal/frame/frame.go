// Package frame provides the fundamental image and depth-buffer types shared
// by every stage of the GameStreamSR pipeline: the renderer writes into them,
// the codec compresses them, the RoI detector reads the depth plane, and the
// upscalers produce them.
//
// Images are planar 8-bit RGB; depth maps are dense float32 planes in [0, 1]
// where, following graphics convention, smaller values are nearer to the
// camera. Both types expose rectangular sub-views that share storage with the
// parent, which lets the client slice out the RoI region without copying.
package frame

import (
	"errors"
	"fmt"
)

// Image is a planar 8-bit RGB image. Planes are stored row-major with an
// explicit stride so that sub-images can alias a parent image's storage.
type Image struct {
	W, H   int
	Stride int
	R      []uint8
	G      []uint8
	B      []uint8
}

// NewImage allocates a zeroed w×h image.
func NewImage(w, h int) *Image {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("frame: invalid image size %dx%d", w, h))
	}
	n := w * h
	return &Image{
		W: w, H: h, Stride: w,
		R: make([]uint8, n),
		G: make([]uint8, n),
		B: make([]uint8, n),
	}
}

// NewImagePacked allocates a zeroed w×h image whose three planes are slices
// of ONE backing array (R first, then G, then B). The public field layout is
// identical to NewImage's, but a packed image is a single heap object, which
// is what bufpool checkout/return and the hot frame loop want. R is sliced
// with the backing's full capacity so the pool can recover the allocation
// from the image alone.
func NewImagePacked(w, h int) *Image {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("frame: invalid image size %dx%d", w, h))
	}
	n := w * h
	backing := make([]uint8, 3*n)
	return &Image{
		W: w, H: h, Stride: w,
		R: backing[0:n:cap(backing)],
		G: backing[n : 2*n : 2*n],
		B: backing[2*n : 3*n : 3*n],
	}
}

// At returns the RGB triple at (x, y). It panics if out of bounds, mirroring
// slice indexing semantics.
func (im *Image) At(x, y int) (r, g, b uint8) {
	i := y*im.Stride + x
	return im.R[i], im.G[i], im.B[i]
}

// Set writes the RGB triple at (x, y).
func (im *Image) Set(x, y int, r, g, b uint8) {
	i := y*im.Stride + x
	im.R[i], im.G[i], im.B[i] = r, g, b
}

// Index returns the plane index for (x, y).
func (im *Image) Index(x, y int) int { return y*im.Stride + x }

// SubImage returns a view of the rectangle [x, x+w) × [y, y+h) that shares
// storage with im. Mutations through the view are visible in the parent.
func (im *Image) SubImage(x, y, w, h int) (*Image, error) {
	if x < 0 || y < 0 || w < 0 || h < 0 || x+w > im.W || y+h > im.H {
		return nil, fmt.Errorf("frame: sub-image %dx%d at (%d,%d) outside %dx%d image", w, h, x, y, im.W, im.H)
	}
	off := y*im.Stride + x
	end := off
	if w > 0 && h > 0 {
		end = off + (h-1)*im.Stride + w
	}
	return &Image{
		W: w, H: h, Stride: im.Stride,
		R: im.R[off:end],
		G: im.G[off:end],
		B: im.B[off:end],
	}, nil
}

// MustSubImage is SubImage for rectangles the caller has already validated.
func (im *Image) MustSubImage(x, y, w, h int) *Image {
	s, err := im.SubImage(x, y, w, h)
	if err != nil {
		panic(err)
	}
	return s
}

// Clone returns a deep copy of im with a compact stride.
func (im *Image) Clone() *Image {
	out := NewImage(im.W, im.H)
	out.CopyFrom(im)
	return out
}

// CopyFrom copies src's pixels into im. The two images must have equal
// dimensions; strides may differ.
func (im *Image) CopyFrom(src *Image) {
	if im.W != src.W || im.H != src.H {
		panic(fmt.Sprintf("frame: CopyFrom size mismatch %dx%d vs %dx%d", im.W, im.H, src.W, src.H))
	}
	for y := 0; y < im.H; y++ {
		d := y * im.Stride
		s := y * src.Stride
		copy(im.R[d:d+im.W], src.R[s:s+src.W])
		copy(im.G[d:d+im.W], src.G[s:s+src.W])
		copy(im.B[d:d+im.W], src.B[s:s+src.W])
	}
}

// Fill sets every pixel to the given color.
func (im *Image) Fill(r, g, b uint8) {
	for y := 0; y < im.H; y++ {
		row := y * im.Stride
		for x := 0; x < im.W; x++ {
			im.R[row+x], im.G[row+x], im.B[row+x] = r, g, b
		}
	}
}

// Compact returns im itself when its storage is already contiguous
// (stride == width), otherwise a compact deep copy. Codec and SR stages use
// it to get linear plane access.
func (im *Image) Compact() *Image {
	if im.Stride == im.W {
		return im
	}
	return im.Clone()
}

// Luma returns the Rec.601 luma plane of the image as float64 in [0, 255].
// Quality metrics (PSNR/SSIM) operate on luma, as is conventional.
func (im *Image) Luma() []float64 {
	return im.LumaInto(make([]float64, im.W*im.H))
}

// LumaInto writes the luma plane into out, which must have length W*H, and
// returns it. Every element is overwritten, so out may be a dirty pooled
// buffer.
func (im *Image) LumaInto(out []float64) []float64 {
	im.LumaRowsInto(out, 0, im.H)
	return out
}

// LumaRowsInto is LumaInto for rows [y0, y1) only: it writes those rows of
// the luma plane into the same rows of out, which must have length W*H.
// Disjoint row ranges touch disjoint elements, so a row-parallel loop may
// convert one image with several calls.
func (im *Image) LumaRowsInto(out []float64, y0, y1 int) {
	if len(out) != im.W*im.H {
		panic(fmt.Sprintf("frame: LumaInto buffer length %d != %dx%d", len(out), im.W, im.H))
	}
	for y := y0; y < y1; y++ {
		row := y * im.Stride
		o := out[y*im.W : (y+1)*im.W]
		r, g, b := im.R[row:row+im.W], im.G[row:row+im.W], im.B[row:row+im.W]
		for x := range o {
			o[x] = 0.299*float64(r[x]) + 0.587*float64(g[x]) + 0.114*float64(b[x])
		}
	}
}

// Equal reports whether the two images have identical dimensions and pixels.
func (im *Image) Equal(other *Image) bool {
	if im.W != other.W || im.H != other.H {
		return false
	}
	for y := 0; y < im.H; y++ {
		a := y * im.Stride
		b := y * other.Stride
		for x := 0; x < im.W; x++ {
			if im.R[a+x] != other.R[b+x] || im.G[a+x] != other.G[b+x] || im.B[a+x] != other.B[b+x] {
				return false
			}
		}
	}
	return true
}

// DepthMap is a dense float32 depth plane. Values lie in [0, 1]; 0 is the
// near plane (closest to the player) and 1 the far plane, matching the
// convention of a normalized Z-buffer.
type DepthMap struct {
	W, H   int
	Stride int
	Z      []float32
}

// NewDepthMap allocates a zeroed (all-near) w×h depth map.
func NewDepthMap(w, h int) *DepthMap {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("frame: invalid depth map size %dx%d", w, h))
	}
	return &DepthMap{W: w, H: h, Stride: w, Z: make([]float32, w*h)}
}

// At returns the depth at (x, y).
func (d *DepthMap) At(x, y int) float32 { return d.Z[y*d.Stride+x] }

// Set writes the depth at (x, y).
func (d *DepthMap) Set(x, y int, z float32) { d.Z[y*d.Stride+x] = z }

// Fill sets every sample to z.
func (d *DepthMap) Fill(z float32) {
	for y := 0; y < d.H; y++ {
		row := y * d.Stride
		for x := 0; x < d.W; x++ {
			d.Z[row+x] = z
		}
	}
}

// Clone returns a deep copy with a compact stride.
func (d *DepthMap) Clone() *DepthMap {
	out := NewDepthMap(d.W, d.H)
	for y := 0; y < d.H; y++ {
		copy(out.Z[y*out.Stride:y*out.Stride+d.W], d.Z[y*d.Stride:y*d.Stride+d.W])
	}
	return out
}

// SubMap returns a view of the rectangle [x, x+w) × [y, y+h) sharing storage.
func (d *DepthMap) SubMap(x, y, w, h int) (*DepthMap, error) {
	if x < 0 || y < 0 || w < 0 || h < 0 || x+w > d.W || y+h > d.H {
		return nil, fmt.Errorf("frame: sub-map %dx%d at (%d,%d) outside %dx%d depth map", w, h, x, y, d.W, d.H)
	}
	off := y*d.Stride + x
	end := off
	if w > 0 && h > 0 {
		end = off + (h-1)*d.Stride + w
	}
	return &DepthMap{W: w, H: h, Stride: d.Stride, Z: d.Z[off:end]}, nil
}

// Nearness converts the depth map to a "darkness intensity" map as in the
// paper's Fig. 5: nearer pixels (small z) get larger values. The result is a
// fresh float64 plane in [0, 1] with compact stride, which is what the RoI
// detector consumes.
func (d *DepthMap) Nearness() []float64 {
	return d.NearnessInto(make([]float64, d.W*d.H))
}

// NearnessInto writes the nearness map into out, which must have length W*H,
// and returns it. Every element is overwritten, so out may be a dirty pooled
// buffer.
func (d *DepthMap) NearnessInto(out []float64) []float64 {
	if len(out) != d.W*d.H {
		panic(fmt.Sprintf("frame: NearnessInto buffer length %d != %dx%d", len(out), d.W, d.H))
	}
	i := 0
	for y := 0; y < d.H; y++ {
		row := y * d.Stride
		for x := 0; x < d.W; x++ {
			out[i] = NearnessOf(d.Z[row+x])
			i++
		}
	}
	return out
}

// NearnessOf is the nearness of one depth sample: 1 − z with z clamped to
// [0, 1], the per-pixel map of Nearness.
func NearnessOf(z float32) float64 {
	if z < 0 {
		z = 0
	} else if z > 1 {
		z = 1
	}
	return 1 - float64(z)
}

// Rect is an axis-aligned pixel rectangle, used for RoI coordinates
// throughout the system. W and H are in pixels; X, Y is the top-left corner.
type Rect struct {
	X, Y, W, H int
}

// ErrEmptyRect is returned when an operation requires a non-empty rectangle.
var ErrEmptyRect = errors.New("frame: empty rectangle")

// Empty reports whether r covers zero pixels.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// In reports whether r lies fully inside a w×h frame. The far edges are
// compared by subtraction: fields read off the wire can be large enough for
// X+W to wrap.
func (r Rect) In(w, h int) bool {
	return r.X >= 0 && r.Y >= 0 && r.W >= 0 && r.H >= 0 &&
		r.W <= w && r.H <= h && r.X <= w-r.W && r.Y <= h-r.H
}

// Clamp translates and, if necessary, shrinks r so it fits a w×h frame.
func (r Rect) Clamp(w, h int) Rect {
	if r.W > w {
		r.W = w
	}
	if r.H > h {
		r.H = h
	}
	if r.X < 0 {
		r.X = 0
	}
	if r.Y < 0 {
		r.Y = 0
	}
	if r.X+r.W > w {
		r.X = w - r.W
	}
	if r.Y+r.H > h {
		r.Y = h - r.H
	}
	return r
}

// Scale multiplies every coordinate of r by f (used to map RoI coordinates
// from the low-resolution frame onto the upscaled frame).
func (r Rect) Scale(f int) Rect {
	return Rect{X: r.X * f, Y: r.Y * f, W: r.W * f, H: r.H * f}
}

// Contains reports whether the pixel (x, y) lies inside r.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X && x < r.X+r.W && y >= r.Y && y < r.Y+r.H
}

// Area returns the number of pixels covered by r.
func (r Rect) Area() int {
	if r.Empty() {
		return 0
	}
	return r.W * r.H
}

// CenterDistance2 returns the squared distance from the center of r to the
// point (cx, cy), in quarter-pixel units to stay in integer arithmetic. The
// RoI search uses it for the paper's center-biased tie-break.
func (r Rect) CenterDistance2(cx, cy int) int {
	// Rectangle center in half-pixel units: (2X+W, 2Y+H).
	dx := (2*r.X + r.W) - 2*cx
	dy := (2*r.Y + r.H) - 2*cy
	return dx*dx + dy*dy
}

func (r Rect) String() string {
	return fmt.Sprintf("%dx%d+%d+%d", r.W, r.H, r.X, r.Y)
}
