package sr

import (
	"fmt"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/parallel"
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

// FastConfig parameterises the fast SR kernel.
type FastConfig struct {
	// Kernel is the interpolation backbone (default Lanczos3).
	Kernel upscale.Kind
	// Sharpen is the detail-restoration gain α in out = up + α·(up − blur)
	// (default 2.0; the overshoot clamp makes high gains safe — see the
	// calibration sweep in TestSharpenSweepDefaultNearOptimal). Negative
	// disables restoration.
	Sharpen float64
	// Sched attributes the kernel's parallel work to a scheduler client
	// (nil means the default client).
	Sched *parallel.Client
}

// Fast computes the same function class the analytically-weighted EDSR
// network realises — polyphase interpolation plus high-frequency detail
// restoration — as a direct kernel, so full-resolution pipeline runs don't
// pay the cost of executing every convolution of the topology. The device
// model bills its latency at calibrated NPU rates regardless.
type Fast struct {
	cfg FastConfig
}

// NewFast builds a fast SR engine.
func NewFast(cfg FastConfig) *Fast {
	if cfg.Kernel == upscale.Nearest {
		cfg.Kernel = upscale.Lanczos3
	}
	if cfg.Sharpen == 0 {
		cfg.Sharpen = 2.0
	}
	if cfg.Sharpen < 0 {
		cfg.Sharpen = 0
	}
	return &Fast{cfg: cfg}
}

// Name implements Engine.
func (f *Fast) Name() string { return fmt.Sprintf("fast-sr(%v,α=%.2f)", f.cfg.Kernel, f.cfg.Sharpen) }

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
	if f.cfg.Sharpen == 0 || scale == 1 {
		return upscale.ResizeIntoOn(f.cfg.Sched, dst, im, f.cfg.Kernel, pool)
	}
	// The resample lands in an intermediate image — its pixels the pool's,
	// its header the recycled run's — and the sharpen pass writes dst from it.
	s := startSharpen(pool, dst.W, dst.H)
	err := upscale.ResizeIntoOn(f.cfg.Sched, &s.up, im, f.cfg.Kernel, pool)
	if err == nil {
		s.sharpen(f.cfg.Sched, dst, f.cfg.Sharpen)
	}
	s.release(pool)
	return err
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
