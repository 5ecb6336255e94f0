package pipeline

import (
	"fmt"
	"time"

	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/device"
	"gamestreamsr/internal/frame"
)

// Stages holds the per-stage latencies of one frame's journey through the
// game-streaming pipeline (paper Fig. 1a / Fig. 10c). The sum is the
// motion-to-photon latency.
type Stages struct {
	Input     time.Duration // user input uplink to the server
	Render    time.Duration // game render on the server GPU
	RoIDetect time.Duration // depth processing + Algorithm 1 (ours only)
	Encode    time.Duration // server hardware encode
	Transmit  time.Duration // network downlink
	Decode    time.Duration // client decode (HW for ours, SW for NEMO)
	Upscale   time.Duration // client super-resolution stage
	Display   time.Duration // scanout
}

// MTP returns the motion-to-photon latency: the sum of all stages.
func (s Stages) MTP() time.Duration {
	return s.Input + s.Render + s.RoIDetect + s.Encode + s.Transmit + s.Decode + s.Upscale + s.Display
}

// Names lists the stage labels in pipeline order, matching Values.
func (s Stages) Names() []string {
	return []string{"input", "render", "roi-detect", "encode", "transmit", "decode", "upscale", "display"}
}

// Values lists the stage durations in pipeline order, matching Names.
func (s Stages) Values() []time.Duration {
	return []time.Duration{s.Input, s.Render, s.RoIDetect, s.Encode, s.Transmit, s.Decode, s.Upscale, s.Display}
}

// FrameResult captures everything measured about one streamed frame.
type FrameResult struct {
	// Index is the frame number within the run.
	Index int
	// Type is the coded frame type (reference = intra).
	Type codec.FrameType
	// Stages are the modelled per-stage latencies.
	Stages Stages
	// RoI is the detected region (simulation coordinates); zero for NEMO.
	RoI frame.Rect
	// PSNR, SSIM and LPIPS compare the upscaled frame with the
	// ground-truth high-resolution render.
	PSNR, SSIM, LPIPS float64
	// Bytes is the modelled wire size of the frame (see BitrateMbps),
	// which drives transmission latency and radio energy.
	Bytes int
	// CodedBytes is the actual size our transparent block codec produced,
	// scaled to nominal resolution — used for codec-level comparisons.
	CodedBytes int
	// Energy is the per-rail energy of this frame in joules.
	Energy map[device.Rail]float64
	// Upscaled is the reconstructed high-resolution frame, retained only
	// when Config.KeepFrames is set.
	Upscaled *frame.Image
}

// Result is the outcome of a pipeline run.
type Result struct {
	// Pipeline names the implementation ("gamestreamsr" or "nemo").
	Pipeline string
	// Device is the client profile the run was modelled on.
	Device *device.Profile
	// Frames holds the per-frame measurements in order.
	Frames []FrameResult
}

// ByType returns the frames of one coded type.
func (r *Result) ByType(t codec.FrameType) []FrameResult {
	var out []FrameResult
	for _, f := range r.Frames {
		if f.Type == t {
			out = append(out, f)
		}
	}
	return out
}

// MeanStage returns the mean of one stage selector over the frames of type
// t (or all frames when t is 0).
func (r *Result) MeanStage(t codec.FrameType, sel func(Stages) time.Duration) (time.Duration, error) {
	var sum time.Duration
	n := 0
	for _, f := range r.Frames {
		if t != 0 && f.Type != t {
			continue
		}
		sum += sel(f.Stages)
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("pipeline: no frames of type %v", t)
	}
	return sum / time.Duration(n), nil
}

// DropCount returns the number of frames lost in transit: always 0, since
// the offline engine delivers every frame (faults are injected on a real
// connection, by internal/faultnet). The benchmark harness still reports it.
func (r *Result) DropCount() int { return 0 }

// MeanUpscale returns the mean upscale-stage latency for frames of type t.
func (r *Result) MeanUpscale(t codec.FrameType) (time.Duration, error) {
	return r.MeanStage(t, func(s Stages) time.Duration { return s.Upscale })
}

// MeanMTP returns the mean motion-to-photon latency for frames of type t.
func (r *Result) MeanMTP(t codec.FrameType) (time.Duration, error) {
	return r.MeanStage(t, func(s Stages) time.Duration { return s.MTP() })
}

// UpscaleFPS returns the frame rate the upscale stage sustains for frames
// of type t — the paper's Fig. 10a metric (4.6 → 61.7 FPS on the S8).
func (r *Result) UpscaleFPS(t codec.FrameType) (float64, error) {
	d, err := r.MeanUpscale(t)
	if err != nil {
		return 0, err
	}
	if d <= 0 {
		return 0, fmt.Errorf("pipeline: zero upscale latency")
	}
	return float64(time.Second) / float64(d), nil
}

// MeanPSNR returns the mean PSNR across all frames.
func (r *Result) MeanPSNR() (float64, error) {
	return r.meanQ(func(f FrameResult) float64 { return f.PSNR })
}

// MeanLPIPS returns the mean LPIPS-proxy distance across all frames.
func (r *Result) MeanLPIPS() (float64, error) {
	return r.meanQ(func(f FrameResult) float64 { return f.LPIPS })
}

func (r *Result) meanQ(sel func(FrameResult) float64) (float64, error) {
	if len(r.Frames) == 0 {
		return 0, fmt.Errorf("pipeline: empty result")
	}
	sum := 0.0
	for _, f := range r.Frames {
		sum += sel(f)
	}
	return sum / float64(len(r.Frames)), nil
}

// meanEnergyByType returns the mean per-frame per-rail energy over frames
// of type t.
func (r *Result) meanEnergyByType(t codec.FrameType) (map[device.Rail]float64, error) {
	out := map[device.Rail]float64{}
	n := 0
	for _, f := range r.Frames {
		if f.Type != t {
			continue
		}
		for rail, j := range f.Energy {
			out[rail] += j
		}
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("pipeline: no frames of type %v", t)
	}
	for rail := range out {
		out[rail] /= float64(n)
	}
	return out, nil
}

// GOPEnergy synthesises the per-rail energy of a nominal GOP (one
// reference + gopSize−1 non-reference frames) from the run's mean
// per-frame-type energies — this is how short simulated GOPs extrapolate to
// the paper's 60-frame GOPs for Fig. 11/12.
func (r *Result) GOPEnergy(gopSize int) (map[device.Rail]float64, error) {
	if gopSize < 1 {
		return nil, fmt.Errorf("pipeline: invalid GOP size %d", gopSize)
	}
	ref, err := r.meanEnergyByType(codec.Intra)
	if err != nil {
		return nil, err
	}
	out := map[device.Rail]float64{}
	for rail, j := range ref {
		out[rail] = j
	}
	if gopSize > 1 {
		nonref, err := r.meanEnergyByType(codec.Inter)
		if err != nil {
			return nil, err
		}
		for rail, j := range nonref {
			out[rail] += j * float64(gopSize-1)
		}
	}
	return out, nil
}

// GOPEnergyTotal is GOPEnergy summed over rails.
func (r *Result) GOPEnergyTotal(gopSize int) (float64, error) {
	m, err := r.GOPEnergy(gopSize)
	if err != nil {
		return 0, err
	}
	t := 0.0
	for _, j := range m {
		t += j
	}
	return t, nil
}
