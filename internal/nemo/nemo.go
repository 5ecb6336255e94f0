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
	"gamestreamsr/internal/network"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/upscale"
)

// Runner executes the NEMO baseline under the same Config as the
// GameStreamSR pipeline so comparisons share every knob.
type Runner struct {
	cfg        pipeline.Config
	net        *network.Model
	simW, simH int
}

// New validates the configuration and builds the baseline runner.
func New(cfg pipeline.Config) (*Runner, error) {
	cfg = cfg.WithDefaults()
	simW := cfg.LRWidth / cfg.SimDiv
	simH := cfg.LRHeight / cfg.SimDiv
	if simW < 16 || simH < 16 {
		return nil, fmt.Errorf("nemo: SimDiv %d leaves a %dx%d frame, too small", cfg.SimDiv, simW, simH)
	}
	return &Runner{cfg: cfg, net: network.New(cfg.Net), simW: simW, simH: simH}, nil
}

// Config returns the effective configuration.
func (r *Runner) Config() pipeline.Config { return r.cfg }

// Run streams nFrames frames through the NEMO pipeline on the shared
// staged engine.
func (r *Runner) Run(nFrames int) (*pipeline.Result, error) {
	return pipeline.RunEngine(r.cfg, pipeline.EngineOptions{
		Prefix: "nemo",
		Net:    r.net,
		SimW:   r.simW, SimH: r.simH,
	}, &variant{cfg: r.cfg}, nFrames)
}

// variant supplies the NEMO hooks to the staged engine: no server RoI
// stage, full-frame DNN SR on reference frames, HR reconstruction from the
// upscaled reference on non-reference frames, and the modified-software-
// decoder cost model.
type variant struct {
	cfg pipeline.Config
	// hrPrev is the previous reconstructed HR frame NEMO reuses.
	// Client-stage state.
	hrPrev *frame.Image
}

func (v *variant) Name() string { return "nemo" }

// Upscale reconstructs the HR frame: full-frame DNN SR for reference
// frames, NEMO's motion-vector/residual reuse for non-reference frames.
func (v *variant) Upscale(df *codec.DecodedFrame, job *pipeline.FrameJob) (*frame.Image, error) {
	cfg := v.cfg
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
		if v.hrPrev == nil {
			return nil, fmt.Errorf("nemo: frame %d: inter frame without reference", job.Index)
		}
		up = frame.NewImagePacked(v.hrPrev.W, v.hrPrev.H)
		if err = ReconstructHRInto(up, v.hrPrev, df.Side, cfg.Scale, job.Pool); err != nil {
			return nil, fmt.Errorf("nemo: frame %d reconstruct: %w", job.Index, err)
		}
	default:
		return nil, fmt.Errorf("nemo: frame %d: unexpected type %v", job.Index, job.Type)
	}
	v.hrPrev = up
	return up, nil
}

// Cost bills one frame: software decode on the CPU (the modified codec
// cannot use the hardware decoder), NPU SR for reference frames, CPU
// reconstruction for non-reference frames.
func (v *variant) Cost(job *pipeline.FrameJob) (pipeline.Stages, map[device.Rail]float64, error) {
	cfg := v.cfg
	lrPx := cfg.LRWidth * cfg.LRHeight
	hrPx := lrPx * cfg.Scale * cfg.Scale
	dev := cfg.Device
	em := device.NewEnergyMeter(dev)
	st := pipeline.Stages{
		Input:    job.InputLat,
		Render:   cfg.Server.RenderLatency(lrPx),
		Encode:   cfg.Server.EncodeLatency(lrPx),
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
	if side == nil {
		return fmt.Errorf("nemo: missing side information")
	}
	if scale < 1 {
		return fmt.Errorf("nemo: invalid scale %d", scale)
	}
	hrPrev = hrPrev.Compact()
	W, H := hrPrev.W, hrPrev.H
	if dst.W != W || dst.H != H || dst.Stride != W {
		return fmt.Errorf("nemo: destination %dx%d stride %d, want compact %dx%d", dst.W, dst.H, dst.Stride, W, H)
	}
	lrW := side.BlocksX * side.BlockSize
	lrH := side.BlocksY * side.BlockSize
	// The LR frame may not be an exact multiple of the block size; infer
	// its true size from the HR frame instead.
	lrW = min(lrW, W/scale)
	lrH = min(lrH, H/scale)
	if lrW*scale != W || lrH*scale != H {
		return fmt.Errorf("nemo: HR %dx%d is not ×%d of the LR grid", W, H, scale)
	}
	out := dst
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
	for p := 0; p < 3; p++ {
		for i := range lrPlane {
			lrPlane[i] = float64(side.Residual[p][i])
		}
		if err := upscale.ResizePlaneInto(resHR[p], lrPlane, lrW, lrH, W, H, upscale.Bilinear, pool); err != nil {
			return err
		}
	}

	planesPrev := [3][]uint8{hrPrev.R, hrPrev.G, hrPrev.B}
	planesOut := [3][]uint8{out.R, out.G, out.B}
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
				dst := planesOut[p]
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
						dst[y*W+x] = uint8(v + 0.5)
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
