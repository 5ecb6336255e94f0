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
	"gamestreamsr/internal/network"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/roi"
	"gamestreamsr/internal/upscale"
)

// SRIntegrationFactor widens the hardware decode pass to account for the
// decoder reconstructing at high resolution with the added interpolation
// modules (Fig. 15 blue boxes).
const SRIntegrationFactor = 1.25

// Runner executes the SR-integrated decoder pipeline.
type Runner struct {
	cfg    pipeline.Config
	det    *roi.Detector
	net    *network.Model
	kernel upscale.Kind

	simW, simH, simRoI int
}

// New builds the runner. roiKernel selects the RoI residual-interpolation
// kernel (Bicubic or Lanczos3 per §VI; Bilinear degrades to uniform
// treatment and is allowed for ablations).
func New(cfg pipeline.Config, roiKernel upscale.Kind) (*Runner, error) {
	cfg = cfg.WithDefaults()
	simW := cfg.LRWidth / cfg.SimDiv
	simH := cfg.LRHeight / cfg.SimDiv
	if simW < 16 || simH < 16 {
		return nil, fmt.Errorf("srdecoder: SimDiv %d leaves a %dx%d frame, too small", cfg.SimDiv, simW, simH)
	}
	simRoI := cfg.RoIWindow / cfg.SimDiv
	simRoI &^= 1
	if simRoI < 8 {
		simRoI = 8
	}
	if simRoI > simW {
		simRoI = simW &^ 1
	}
	if simRoI > simH {
		simRoI = simH &^ 1
	}
	det, err := roi.New(roi.Config{WindowW: simRoI, WindowH: simRoI})
	if err != nil {
		return nil, err
	}
	return &Runner{
		cfg: cfg, det: det, net: network.New(cfg.Net), kernel: roiKernel,
		simW: simW, simH: simH, simRoI: simRoI,
	}, nil
}

// Run streams nFrames frames through the SR-integrated decoder pipeline on
// the shared staged engine.
func (r *Runner) Run(nFrames int) (*pipeline.Result, error) {
	return pipeline.RunEngine(r.cfg, pipeline.EngineOptions{
		Prefix:   "srdecoder",
		Net:      r.net,
		Detector: r.det,
		SimW:     r.simW, SimH: r.simH,
	}, &variant{r: r}, nFrames)
}

// variant supplies the SR-integrated-decoder hooks to the staged engine:
// the reference/non-reference dispatcher on the client, and the
// fixed-function decoder cost model.
type variant struct {
	r *Runner
	// hrPrev is the decoder-buffer copy of the last reconstructed HR
	// frame (Fig. 15 step ❷). Client-stage state.
	hrPrev *frame.Image
}

func (v *variant) Name() string { return "srdecoder" }

// Upscale dispatches one decoded frame: reference frames take the
// GameStreamSR RoI-assisted upscale (step ❶) into a variant-owned frame —
// it becomes the decoder-buffer reference — and non-reference frames are
// reconstructed at HR by the SR-integrated decoder with RoI-guided
// interpolation (steps ❸-❼).
func (v *variant) Upscale(df *codec.DecodedFrame, job *pipeline.FrameJob) (*frame.Image, error) {
	cfg := v.r.cfg
	var up *frame.Image
	var err error
	switch job.Type {
	case codec.Intra:
		up = frame.NewImagePacked(df.Image.W*cfg.Scale, df.Image.H*cfg.Scale)
		if _, err = pipeline.UpscaleRoI(up, df.Image, job.RoI, cfg.Scale, cfg.Engine, cfg.Sched, job.Pool); err != nil {
			return nil, fmt.Errorf("srdecoder: frame %d SR: %w", job.Index, err)
		}
	case codec.Inter:
		if v.hrPrev == nil {
			return nil, fmt.Errorf("srdecoder: frame %d: inter frame without reference", job.Index)
		}
		up = frame.NewImagePacked(v.hrPrev.W, v.hrPrev.H)
		if err = ReconstructRoIGuidedInto(up, v.hrPrev, df.Side, cfg.Scale, job.RoI, v.r.kernel, job.Pool); err != nil {
			return nil, fmt.Errorf("srdecoder: frame %d reconstruct: %w", job.Index, err)
		}
	default:
		return nil, fmt.Errorf("srdecoder: frame %d: unexpected type %v", job.Index, job.Type)
	}
	v.hrPrev = up
	return up, nil
}

// Cost bills one frame. Reference frames pay normal HW decode plus the
// NPU∥GPU RoI upscale; non-reference frames pay only a widened HW decode
// pass at HR — no NPU, GPU or CPU involvement, which is where the §VI
// energy saving comes from.
func (v *variant) Cost(job *pipeline.FrameJob) (pipeline.Stages, map[device.Rail]float64, error) {
	cfg := v.r.cfg
	lrPx := cfg.LRWidth * cfg.LRHeight
	hrPx := lrPx * cfg.Scale * cfg.Scale
	roiPx := cfg.RoIWindow * cfg.RoIWindow
	roiHRPx := roiPx * cfg.Scale * cfg.Scale
	dev := cfg.Device
	em := device.NewEnergyMeter(dev)
	st := pipeline.Stages{
		Input:     job.InputLat,
		Render:    cfg.Server.RenderLatency(lrPx),
		RoIDetect: cfg.Server.RoIDetectLatency(lrPx),
		Encode:    cfg.Server.EncodeLatency(lrPx),
		Transmit:  job.TransmitLat,
		Display:   dev.DisplayLatency(),
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
