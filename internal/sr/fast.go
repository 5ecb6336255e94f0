package sr

import (
	"fmt"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/upscale"
)

// Engine is anything that can super-resolve an image by an integer factor.
// The EDSR network, the fast kernel and bilinear implement it; the client
// pipeline is written against this interface (paper Fig. 6 step ❼).
type Engine interface {
	// UpscaleInto writes the (W·scale)×(H·scale) result into dst — which
	// must already have that geometry and may hold dirty pooled pixels —
	// drawing any internal scratch from pool (nil allocates). im may be a
	// view (Stride > W), such as a RoI of the decoded frame, and is read in
	// place.
	UpscaleInto(dst, im *frame.Image, scale int, pool *bufpool.Pool) error
	// Upscale is UpscaleInto into a new image.
	Upscale(im *frame.Image, scale int) (*frame.Image, error)
	// Name identifies the engine in experiment output.
	Name() string
}

// UpscaleTo is e.UpscaleInto; the benchmark harness (bench/) calls it by
// this name.
func UpscaleTo(e Engine, dst, im *frame.Image, scale int, pool *bufpool.Pool) error {
	return e.UpscaleInto(dst, im, scale, pool)
}

// FastConfig is the fast SR kernel's configuration. It has no settings:
// the backbone is Lanczos-3 and the detail-restoration gain the constant
// sharpenGain.
type FastConfig struct{}

// Fast computes the same function class the analytically-weighted EDSR
// network realises — polyphase interpolation plus high-frequency detail
// restoration — as a direct kernel, so full-resolution pipeline runs don't
// pay the cost of executing every convolution of the topology. The device
// model bills its latency at calibrated NPU rates regardless.
type Fast struct{}

// NewFast builds a fast SR engine.
func NewFast(FastConfig) *Fast { return &Fast{} }

// Name implements Engine.
func (f *Fast) Name() string {
	return fmt.Sprintf("fast-sr(%v,α=%.2f)", upscale.Lanczos3, float64(sharpenGain))
}

// Upscale implements Engine.
func (f *Fast) Upscale(im *frame.Image, scale int) (*frame.Image, error) {
	if scale < 1 {
		return nil, fmt.Errorf("sr: invalid scale %d", scale)
	}
	dst := frame.NewImagePacked(im.W*scale, im.H*scale)
	if err := f.UpscaleInto(dst, im, scale, nil); err != nil {
		return nil, err
	}
	return dst, nil
}

// UpscaleInto implements Engine.
func (f *Fast) UpscaleInto(dst, im *frame.Image, scale int, pool *bufpool.Pool) error {
	if scale < 1 {
		return fmt.Errorf("sr: invalid scale %d", scale)
	}
	if dst.W != im.W*scale || dst.H != im.H*scale {
		return fmt.Errorf("sr: destination %dx%d != %dx scale-%d source", dst.W, dst.H, im.W, scale)
	}
	if scale == 1 {
		return upscale.ResizeInto(dst, im, upscale.Lanczos3, pool)
	}
	s := getRun()
	defer putRun(s)
	if scale == 2 {
		// The client's call: one banded pass computes the ×2 Lanczos rows
		// and sharpens them.
		s.lr = im
		s.sharpen(dst)
		return nil
	}
	// Any other scale lands in an intermediate image — its pixels the
	// pool's, its header the run's — and the sharpen pass writes dst from it.
	n := dst.W * dst.H
	buf := pool.Bytes(3 * n)
	defer pool.PutBytes(buf)
	s.up = frame.Image{W: dst.W, H: dst.H, Stride: dst.W, R: buf[:n], G: buf[n : 2*n], B: buf[2*n:]}
	if err := upscale.ResizeInto(&s.up, im, upscale.Lanczos3, pool); err != nil {
		return err
	}
	s.sharpen(dst)
	return nil
}

// BilinearEngine wraps plain bilinear interpolation in the Engine interface
// so pipelines and ablations can swap the RoI upscaler uniformly.
type BilinearEngine struct{}

// Name implements Engine.
func (BilinearEngine) Name() string { return "bilinear" }

// Upscale implements Engine.
func (BilinearEngine) Upscale(im *frame.Image, scale int) (*frame.Image, error) {
	if scale < 1 {
		return nil, fmt.Errorf("sr: invalid scale %d", scale)
	}
	return upscale.Resize(im, im.W*scale, im.H*scale, upscale.Bilinear)
}

// UpscaleInto implements Engine.
func (BilinearEngine) UpscaleInto(dst, im *frame.Image, scale int, pool *bufpool.Pool) error {
	if scale < 1 {
		return fmt.Errorf("sr: invalid scale %d", scale)
	}
	if dst.W != im.W*scale || dst.H != im.H*scale {
		return fmt.Errorf("sr: destination %dx%d != %dx scale-%d source", dst.W, dst.H, im.W, scale)
	}
	return upscale.ResizeInto(dst, im, upscale.Bilinear, pool)
}
