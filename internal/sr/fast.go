package sr

import (
	"fmt"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/upscale"
)

// Scale is the client's upscale factor, the paper's ×2 (720p → 1440p,
// §V-A). Fast and Network compute only this factor and refuse any other;
// Engine keeps its scale argument for the engines and callers that resample
// generally (BilinearEngine, the benchmark harness).
const Scale = 2

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
	dst := frame.NewImagePacked(im.W*Scale, im.H*Scale)
	if err := f.UpscaleInto(dst, im, scale, nil); err != nil {
		return nil, err
	}
	return dst, nil
}

// UpscaleInto implements Engine: one banded pass computes the ×2 Lanczos-3
// rows of im and sharpens them into dst. It refuses any other scale.
func (f *Fast) UpscaleInto(dst, im *frame.Image, scale int, _ *bufpool.Pool) error {
	if scale != Scale {
		return fmt.Errorf("sr: fast-sr is ×%d, requested ×%d", Scale, scale)
	}
	if dst.W != im.W*Scale || dst.H != im.H*Scale {
		return fmt.Errorf("sr: destination %dx%d != %dx scale-%d source", dst.W, dst.H, im.W, Scale)
	}
	s := getRun()
	s.lr = im
	s.sharpen(dst)
	putRun(s)
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
