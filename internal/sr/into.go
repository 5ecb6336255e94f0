package sr

// Destination-passing tensor ops. Each FooInto writes into a caller-supplied
// tensor/image whose shape it validates, fully overwriting the destination
// so dirty pooled buffers are fine.

import (
	"fmt"
	"sync"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
)

// tensorHeaders recycles Tensor structs so a pooled checkout is just the
// Data buffer. The headers are tiny; sync.Pool keeps this dependency-free.
var tensorHeaders = sync.Pool{New: func() any { return new(Tensor) }}

// GetTensor checks a C×H×W tensor out of pool. Its contents are
// UNSPECIFIED — callers must fully overwrite, which every Into op in this
// package does. A nil pool returns a fresh zeroed tensor.
func GetTensor(pool *bufpool.Pool, c, h, w int) *Tensor {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("sr: invalid tensor shape %dx%dx%d", c, h, w))
	}
	if pool == nil {
		return NewTensor(c, h, w)
	}
	t := tensorHeaders.Get().(*Tensor)
	t.C, t.H, t.W = c, h, w
	t.Data = pool.Float32s(c * h * w)
	return t
}

// PutTensor returns a tensor obtained from GetTensor. The caller must not
// retain t, t.Data or any Plane slice past the call.
func PutTensor(pool *bufpool.Pool, t *Tensor) {
	if pool == nil || t == nil {
		return
	}
	pool.PutFloat32s(t.Data)
	t.Data = nil
	t.C, t.H, t.W = 0, 0, 0
	tensorHeaders.Put(t)
}

// checkShape panics unless t has shape c×h×w — destination mis-sizing is a
// programming error, mirroring the package's other shape panics.
func checkShape(op string, t *Tensor, c, h, w int) {
	if t.C != c || t.H != h || t.W != w {
		panic(fmt.Sprintf("sr: %s destination is %dx%dx%d, want %dx%dx%d", op, t.C, t.H, t.W, c, h, w))
	}
}

// AddInto writes a + b into out (shapes must all match). out may alias a or
// b: element i of out depends only on element i of the inputs.
func AddInto(out, a, b *Tensor) {
	if a.C != b.C || a.H != b.H || a.W != b.W {
		panic(fmt.Sprintf("sr: add shape mismatch %dx%dx%d vs %dx%dx%d", a.C, a.H, a.W, b.C, b.H, b.W))
	}
	checkShape("add", out, a.C, a.H, a.W)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
}

// PixelShuffleInto rearranges a (C·r²)×H×W tensor into C×(H·r)×(W·r), the
// sub-pixel convolution upsampler EDSR uses: channel c·r²+dy·r+dx of in
// supplies the output phase (dy, dx) of channel c. out must have that shape
// and must not alias in.
func PixelShuffleInto(out, in *Tensor, r int) {
	if r <= 0 || in.C%(r*r) != 0 {
		panic(fmt.Sprintf("sr: pixel shuffle of %d channels by r=%d", in.C, r))
	}
	outC := in.C / (r * r)
	checkShape("pixel-shuffle", out, outC, in.H*r, in.W*r)
	for c := 0; c < outC; c++ {
		for dy := 0; dy < r; dy++ {
			for dx := 0; dx < r; dx++ {
				ip := in.Plane(c*r*r + dy*r + dx)
				for y := 0; y < in.H; y++ {
					orow := (y*r + dy) * out.W
					irow := y * in.W
					for x := 0; x < in.W; x++ {
						out.Data[c*out.H*out.W+orow+x*r+dx] = ip[irow+x]
					}
				}
			}
		}
	}
}

// FromImageInto converts an 8-bit image to a 3×H×W tensor t scaled to
// [0, 1].
func FromImageInto(t *Tensor, im *frame.Image) {
	checkShape("from-image", t, 3, im.H, im.W)
	for p, plane := range [3][]uint8{im.R, im.G, im.B} {
		tp := t.Plane(p)
		for y := 0; y < im.H; y++ {
			srow := y * im.Stride
			drow := y * im.W
			for x := 0; x < im.W; x++ {
				tp[drow+x] = float32(plane[srow+x]) / 255
			}
		}
	}
}

// ToImageInto converts a 3×H×W tensor in [0, 1] into im, clamping
// out-of-range values. im must have the tensor's geometry (compact stride).
func ToImageInto(im *frame.Image, t *Tensor) {
	if t.C != 3 {
		panic(fmt.Sprintf("sr: ToImage needs 3 channels, got %d", t.C))
	}
	if im.W != t.W || im.H != t.H || im.Stride != im.W {
		panic(fmt.Sprintf("sr: ToImageInto destination %dx%d stride %d, want compact %dx%d", im.W, im.H, im.Stride, t.W, t.H))
	}
	for p, plane := range [3][]uint8{im.R, im.G, im.B} {
		tp := t.Plane(p)
		for i, v := range tp {
			f := float64(v) * 255
			if f < 0 {
				f = 0
			} else if f > 255 {
				f = 255
			}
			plane[i] = uint8(f + 0.5)
		}
	}
}
