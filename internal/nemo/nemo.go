// Package nemo implements the paper's baseline (SOTA): NEMO (Yeo et al.,
// MobiCom'20) ported to game streaming, as §V-A describes. NEMO upscales
// only the reference (intra) frame with the DNN, then reconstructs every
// non-reference frame at high resolution from the upscaled reference using
// bilinearly upscaled motion vectors and residuals extracted from a
// *modified software decoder* — which is why NEMO cannot use the mobile
// hardware decoder and pays libvpx-on-CPU decode costs (paper Fig. 12).
//
// The reconstruction is the real algorithm on real pixels: LR-estimated
// motion vectors and quantized residuals are reused at HR, so the
// approximation error the paper's Fig. 13 shows (PSNR decaying below 30 dB
// across a GOP) emerges from the arithmetic rather than being scripted.
package nemo

import (
	"fmt"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/device"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/upscale"
)

// New returns the NEMO variant of the frame loop: no server RoI stage,
// full-frame DNN SR on reference frames, HR reconstruction from the upscaled
// reference on non-reference frames, and the modified-software-decoder cost
// model. pipeline.Run gives it the same Config and stream as the variants
// it is compared with.
func New() pipeline.Variant { return variant{} }

type variant struct{}

func (variant) Name() string         { return "nemo" }
func (variant) ReadsRoI() bool       { return false }
func (variant) KeepsReference() bool { return true }

// Upscale reconstructs the HR frame: full-frame DNN SR for reference
// frames, NEMO's motion-vector/residual reuse of prev for non-reference
// frames.
func (variant) Upscale(cfg *pipeline.Config, df *codec.DecodedFrame, job *pipeline.FrameJob, prev *frame.Image) (*frame.Image, error) {
	var up *frame.Image
	var err error
	switch job.Type {
	case codec.Intra:
		// Full-frame DNN SR of the reference frame on the NPU. The output
		// stays variant-owned (it is the next frames' reference), but all
		// tensor/interpolation scratch comes from the job's pool.
		up = frame.NewImagePacked(df.Image.W*cfg.Scale, df.Image.H*cfg.Scale)
		if err = cfg.Engine.UpscaleInto(up, df.Image, cfg.Scale, job.Pool); err != nil {
			return nil, fmt.Errorf("nemo: frame %d SR: %w", job.Index, err)
		}
	case codec.Inter:
		if prev == nil {
			return nil, fmt.Errorf("nemo: frame %d: inter frame without reference", job.Index)
		}
		up = frame.NewImagePacked(prev.W, prev.H)
		if err = ReconstructHRInto(up, prev, df.Side, cfg.Scale, job.Pool); err != nil {
			return nil, fmt.Errorf("nemo: frame %d reconstruct: %w", job.Index, err)
		}
	default:
		return nil, fmt.Errorf("nemo: frame %d: unexpected type %v", job.Index, job.Type)
	}
	return up, nil
}

// Cost bills one frame: software decode on the CPU (the modified codec
// cannot use the hardware decoder), NPU SR for reference frames, CPU
// reconstruction for non-reference frames.
func (variant) Cost(cfg *pipeline.Config, job *pipeline.FrameJob) (pipeline.Stages, map[device.Rail]float64, error) {
	lrPx := cfg.LRWidth * cfg.LRHeight
	hrPx := lrPx * cfg.Scale * cfg.Scale
	dev := cfg.Device
	em := device.NewEnergyMeter(dev)
	st := pipeline.Stages{
		Input:    job.InputLat,
		Transmit: job.TransmitLat,
		// Modified codec ⇒ software decoder on the CPU.
		Decode:  dev.SWDecodeLatency(lrPx),
		Display: dev.DisplayLatency(),
	}
	em.AddActive(device.RailCPU, st.Decode)
	em.AddActive(device.RailDisplay, dev.DisplayActive())
	em.AddNetworkBytes(job.NominalBytes)

	switch job.Type {
	case codec.Intra:
		st.Upscale = dev.SRLatency(lrPx)
		em.AddActive(device.RailNPU, st.Upscale)
	case codec.Inter:
		// MV + residual bilinear upscaling and reconstruction on the CPU.
		st.Upscale = dev.CPUUpscaleLatency(hrPx)
		em.AddWatts(device.RailCPU, dev.CPUUpscaleWatts, st.Upscale)
	default:
		return pipeline.Stages{}, nil, fmt.Errorf("nemo: frame %d: unexpected type %v", job.Index, job.Type)
	}
	return st, em.NonZero(), nil
}

// ReconstructHRInto rebuilds a high-resolution non-reference frame from the
// upscaled previous frame plus the LR side information: per-block motion
// vectors scaled by the upscale factor and residual planes bilinearly
// upscaled — NEMO's core reuse step. dst must match hrPrev's geometry and
// may hold dirty pooled pixels: the block grid spans the whole frame, so
// every output pixel is overwritten. Transient residual planes are drawn
// from pool (nil allocates).
func ReconstructHRInto(dst, hrPrev *frame.Image, side *codec.SideInfo, scale int, pool *bufpool.Pool) error {
	if err := ReconstructInto(dst, hrPrev, side, scale, frame.Rect{}, upscale.Bilinear, pool); err != nil {
		return fmt.Errorf("nemo: %w", err)
	}
	return nil
}

// ReconstructInto is ReconstructHRInto with the paper's §VI refinement
// (srdecoder.ReconstructRoIGuidedInto): inside roiLR, scaled to HR, the
// residual planes are upscaled with kernel instead, resampled from the full
// plane so RoI-boundary taps see real neighbours. An empty roiLR or a
// bilinear kernel is ReconstructHRInto. Its errors carry no package prefix.
func ReconstructInto(dst, hrPrev *frame.Image, side *codec.SideInfo, scale int, roiLR frame.Rect, kernel upscale.Kind, pool *bufpool.Pool) error {
	if side == nil {
		return fmt.Errorf("missing side information")
	}
	if scale < 1 {
		return fmt.Errorf("invalid scale %d", scale)
	}
	hrPrev = hrPrev.Compact()
	W, H := hrPrev.W, hrPrev.H
	if dst.W != W || dst.H != H || dst.Stride != W {
		return fmt.Errorf("destination %dx%d stride %d, want compact %dx%d", dst.W, dst.H, dst.Stride, W, H)
	}
	lrW, lrH := side.W, side.H
	if lrW*scale != W || lrH*scale != H {
		return fmt.Errorf("HR %dx%d is not ×%d of the LR frame %dx%d", W, H, scale, lrW, lrH)
	}
	roiHR := roiLR.Scale(scale).Clamp(W, H)
	refine := kernel != upscale.Bilinear && !roiHR.Empty()
	bs := side.BlockSize * scale

	// Upscale the residual planes once per frame (bilinear, like NEMO).
	lrPlane := pool.Float64s(lrW * lrH)
	defer pool.PutFloat64s(lrPlane)
	var resHR [3][]float64
	for p := 0; p < 3; p++ {
		resHR[p] = pool.Float64s(W * H)
	}
	defer func() {
		for p := 0; p < 3; p++ {
			pool.PutFloat64s(resHR[p])
		}
	}()
	var sharp []float64
	if refine {
		sharp = pool.Float64s(W * H)
		defer pool.PutFloat64s(sharp)
	}
	for p := 0; p < 3; p++ {
		side.ResidualInto(p, lrPlane)
		if err := upscale.ResizePlaneInto(resHR[p], lrPlane, lrW, lrH, W, H, upscale.Bilinear, pool); err != nil {
			return err
		}
		if !refine {
			continue
		}
		if err := upscale.ResizePlaneInto(sharp, lrPlane, lrW, lrH, W, H, kernel, pool); err != nil {
			return err
		}
		for y := roiHR.Y; y < roiHR.Y+roiHR.H; y++ {
			copy(resHR[p][y*W+roiHR.X:y*W+roiHR.X+roiHR.W], sharp[y*W+roiHR.X:y*W+roiHR.X+roiHR.W])
		}
	}

	planesPrev := [3][]uint8{hrPrev.R, hrPrev.G, hrPrev.B}
	planesOut := [3][]uint8{dst.R, dst.G, dst.B}
	for by := 0; by < side.BlocksY; by++ {
		for bx := 0; bx < side.BlocksX; bx++ {
			mv := side.MVs[by*side.BlocksX+bx]
			x0 := bx * bs
			y0 := by * bs
			w := min(bs, W-x0)
			h := min(bs, H-y0)
			if w <= 0 || h <= 0 {
				continue
			}
			dx := int(mv.DX) * scale
			dy := int(mv.DY) * scale
			for p := 0; p < 3; p++ {
				src := planesPrev[p]
				out := planesOut[p]
				res := resHR[p]
				for j := 0; j < h; j++ {
					y := y0 + j
					sy := clamp(y+dy, 0, H-1)
					for i := 0; i < w; i++ {
						x := x0 + i
						sx := clamp(x+dx, 0, W-1)
						v := float64(src[sy*W+sx]) + res[y*W+x]
						if v < 0 {
							v = 0
						} else if v > 255 {
							v = 255
						}
						out[y*W+x] = uint8(v + 0.5)
					}
				}
			}
		}
	}
	return nil
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
