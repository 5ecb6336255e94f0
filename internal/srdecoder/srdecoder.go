// Package srdecoder prototypes the paper's future-work design (§VI,
// Fig. 15): an RoI-guided SR-integrated video decoder. The reference frame
// still takes the GameStreamSR RoI-upscale path and is cached in the decoder
// buffer; non-reference frames *bypass the upscale engine entirely* — a
// frame dispatcher routes them through the decoder's own motion-compensation
// and residual path operating directly at high resolution, with RoI-guided
// interpolation: the residual inside the RoI is upscaled with a
// quality-preserving kernel (bicubic or Lanczos) while the rest uses
// bilinear.
//
// Latency is billed at fixed-function decoder rates (the SR integration is
// modelled as a constant-factor widening of the hardware decode pass), so
// non-reference frames cost neither NPU nor CPU time — which is where the
// paper's "as high as 50%" additional energy saving comes from.
package srdecoder

import (
	"fmt"
	"time"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/device"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/nemo"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/upscale"
)

// SRIntegrationFactor widens the hardware decode pass to account for the
// decoder reconstructing at high resolution with the added interpolation
// modules (Fig. 15 blue boxes).
const SRIntegrationFactor = 1.25

// New returns the SR-integrated decoder variant of the frame loop: the
// reference/non-reference dispatcher on the client, and the fixed-function
// decoder cost model. roiKernel selects the RoI residual-interpolation
// kernel (Bicubic or Lanczos3 per §VI; Bilinear degrades to uniform
// treatment and is allowed for ablations).
func New(roiKernel upscale.Kind) pipeline.Variant { return variant{kernel: roiKernel} }

type variant struct {
	kernel upscale.Kind
}

func (variant) Name() string         { return "srdecoder" }
func (variant) ReadsRoI() bool       { return true }
func (variant) KeepsReference() bool { return true }

// Upscale dispatches one decoded frame: reference frames take the
// GameStreamSR RoI-assisted upscale (step ❶) into a variant-owned frame —
// it becomes the decoder-buffer reference (Fig. 15 step ❷) — and
// non-reference frames are reconstructed from prev at HR by the
// SR-integrated decoder with RoI-guided interpolation (steps ❸-❼).
func (v variant) Upscale(cfg *pipeline.Config, df *codec.DecodedFrame, job *pipeline.FrameJob, prev *frame.Image) (*frame.Image, error) {
	var up *frame.Image
	var err error
	switch job.Type {
	case codec.Intra:
		up = frame.NewImagePacked(df.Image.W*cfg.Scale, df.Image.H*cfg.Scale)
		if _, err = pipeline.UpscaleRoI(up, df.Image, job.RoI, cfg.Scale, cfg.Engine, job.Pool); err != nil {
			return nil, fmt.Errorf("srdecoder: frame %d SR: %w", job.Index, err)
		}
	case codec.Inter:
		if prev == nil {
			return nil, fmt.Errorf("srdecoder: frame %d: inter frame without reference", job.Index)
		}
		up = frame.NewImagePacked(prev.W, prev.H)
		if err = ReconstructRoIGuidedInto(up, prev, df.Side, cfg.Scale, job.RoI, v.kernel, job.Pool); err != nil {
			return nil, fmt.Errorf("srdecoder: frame %d reconstruct: %w", job.Index, err)
		}
	default:
		return nil, fmt.Errorf("srdecoder: frame %d: unexpected type %v", job.Index, job.Type)
	}
	return up, nil
}

// Cost bills one frame. Reference frames pay normal HW decode plus the
// NPU∥GPU RoI upscale; non-reference frames pay only a widened HW decode
// pass at HR — no NPU, GPU or CPU involvement, which is where the §VI
// energy saving comes from.
func (variant) Cost(cfg *pipeline.Config, job *pipeline.FrameJob) (pipeline.Stages, map[device.Rail]float64, error) {
	lrPx := cfg.LRWidth * cfg.LRHeight
	hrPx := lrPx * cfg.Scale * cfg.Scale
	roiPx := cfg.RoIWindow * cfg.RoIWindow
	roiHRPx := roiPx * cfg.Scale * cfg.Scale
	dev := cfg.Device
	em := device.NewEnergyMeter(dev)
	st := pipeline.Stages{
		Input:    job.InputLat,
		Transmit: job.TransmitLat,
		Display:  dev.DisplayLatency(),
	}
	em.AddActive(device.RailDisplay, dev.DisplayActive())
	em.AddNetworkBytes(job.NominalBytes)

	switch job.Type {
	case codec.Intra:
		st.Decode = dev.HWDecodeLatency(lrPx)
		srLat := dev.SRLatency(roiPx)
		gpuLat := dev.GPUBilinearLatency(hrPx - roiHRPx)
		st.Upscale = max(srLat, gpuLat) + dev.MergeLatency()
		em.AddActive(device.RailHWDecoder, st.Decode)
		em.AddActive(device.RailNPU, srLat)
		em.AddActive(device.RailGPU, gpuLat+dev.MergeLatency())
	case codec.Inter:
		st.Decode = time.Duration(float64(dev.HWDecodeLatency(hrPx)) * SRIntegrationFactor)
		st.Upscale = 0 // bypassed
		em.AddActive(device.RailHWDecoder, st.Decode)
	default:
		return pipeline.Stages{}, nil, fmt.Errorf("srdecoder: frame %d: unexpected type %v", job.Index, job.Type)
	}
	return st, em.NonZero(), nil
}

// ReconstructRoIGuidedInto is the §VI step-❸ reconstruction: like NEMO's HR
// reuse, but the residual plane inside the (scaled) RoI is upscaled with
// the quality-preserving kernel while the rest uses bilinear — one
// reconstruction, nemo.ReconstructInto, with the RoI refinement on. dst must
// match hrPrev's geometry and may hold dirty pooled pixels — the block grid
// spans the frame, so every output pixel is overwritten. Transient residual
// planes come from pool (nil allocates).
func ReconstructRoIGuidedInto(dst, hrPrev *frame.Image, side *codec.SideInfo, scale int, roiLR frame.Rect, kernel upscale.Kind, pool *bufpool.Pool) error {
	if err := nemo.ReconstructInto(dst, hrPrev, side, scale, roiLR, kernel, pool); err != nil {
		return fmt.Errorf("srdecoder: %w", err)
	}
	return nil
}
