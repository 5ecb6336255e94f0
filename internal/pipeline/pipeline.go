// Package pipeline is the end-to-end game-streaming simulator: it drives a
// game workload through the server (render → depth-guided RoI detection →
// encode → transmit) and the client (decode → RoI SR ∥ bilinear → merge →
// display) exactly as the paper's Fig. 6 describes, measuring real pixels
// for quality and the calibrated device clock for latency and energy.
//
// Pixel processing can be scaled down by Config.SimDiv for tractability on
// a CPU: the frames, codec and upscalers then run at (LR/SimDiv) resolution
// while every latency and energy figure is still computed from the nominal
// stream geometry, so reduced-size runs reproduce full-size timing exactly
// and quality in a band-limited proxy of the full-size content.
package pipeline

import (
	"fmt"
	"math"
	"time"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/device"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/roi"
	"gamestreamsr/internal/sr"
	"gamestreamsr/internal/telemetry"
	"gamestreamsr/internal/upscale"
)

// Config parameterises a pipeline run. The zero value of most fields picks
// the paper's evaluation setup (720p → 1440p, GOP 60, Tab S8).
type Config struct {
	// Device is the client profile (default Tab S8).
	Device *device.Profile
	// Game is the workload (default G3, Witcher 3 — the paper's drill-down
	// game).
	Game *games.Workload

	// LRWidth × LRHeight is the nominal streamed resolution (default
	// 1280×720); the client upscales it ×sr.Scale.
	LRWidth, LRHeight int

	// RoIWindow is the square RoI side in nominal LR pixels; 0 probes the
	// device for the largest real-time window (§IV-B1 step ❶).
	RoIWindow int

	// SimDiv divides the pixel simulation resolution (default 4): the
	// simulator renders, codes and upscales at (LR/SimDiv) while billing
	// latency/energy at nominal geometry.
	SimDiv int

	// GOPSize is the keyframe interval of the simulated stream (default
	// 60 nominal; tests use smaller streams and extrapolate energy with
	// Result.GOPEnergy).
	GOPSize int

	// QStep is the codec quantizer (default 6).
	QStep int

	// Engine performs the DNN upscaling (RoI for ours, full frame for
	// NEMO). Default: sr.NewFast with default config.
	Engine sr.Engine

	// StartFrame offsets the workload's motion script.
	StartFrame int

	// FrameStride samples every k-th frame of the motion script. It
	// defaults to SimDiv: simulating at 1/k spatial resolution with k×
	// time steps keeps the *pixels per frame* of scene motion equal to the
	// nominal stream, which is what the codec's motion compensation — and
	// therefore NEMO's reuse error — actually responds to.
	FrameStride int

	// RoITrack, when non-nil, enables temporal RoI stabilisation
	// (hysteresis + motion clamp; see roi.TrackConfig). Off by default,
	// matching the paper's per-frame independent detection.
	RoITrack *roi.TrackConfig

	// KeepFrames retains upscaled frames in the results (memory-heavy).
	// It also disables the engine's recycling of delivered frames.
	KeepFrames bool

	// Metrics, when non-nil, receives the engine's runtime telemetry:
	// per-stage span histograms, channel-wait (backpressure) totals,
	// frame counters, RoI areas and coded bytes (see DESIGN.md §9).
	// Instrumentation is nil-safe and never alters results — the
	// determinism tests run with it enabled.
	Metrics *telemetry.Registry

	// Flight, when non-nil, attaches a per-frame flight recorder: every
	// frame gets a monotonically increasing ID, per-stage wall-clock spans
	// and its RoI/coded-bytes attributes in a fixed ring holding the last N
	// frames, plus deadline/SLO accounting on the modelled client latency
	// (see internal/frametrace and DESIGN.md §11). Recording is lock-light,
	// allocation-free in steady state and never alters results — the
	// determinism tests run with a recorder attached.
	Flight *frametrace.Recorder

	// Tap, when non-nil, observes every encoded frame as it leaves the
	// server stage (before the simulated link), in frame order: the
	// bitstream the engine's client half decodes, for a test to hold
	// against another path (TestEncodeTap, and TestLivePathMatchesEngine,
	// which compares the live source's payloads with it). The payload
	// slice is only valid during the call (it rides the job and is
	// recycled downstream); implementations that keep it must copy.
	// Tapping never alters results — the determinism tests run with a tap
	// attached.
	Tap PacketTap

	// Session names this run in pprof goroutine labels: every stage
	// goroutine (and anything it spawns) carries session=<Session>,
	// stage=<server|client|measure>, so a CPU or goroutine profile of a
	// multi-session process attributes samples to sessions (see
	// internal/diag and DESIGN.md §16). Empty means "pipeline". Labels
	// never alter results — the determinism tests run with them stamped.
	Session string
}

// PacketTap receives the server stage's encoded output, frame by frame; see
// Config.Tap for the payload-lifetime contract.
type PacketTap interface {
	PublishFrame(index int, payload []byte, key bool, roi frame.Rect)
}

// WithDefaults returns the effective configuration.
func (c Config) WithDefaults() Config {
	if c.Device == nil {
		c.Device = device.TabS8()
	}
	if c.Game == nil {
		c.Game, _ = games.ByID("G3")
	}
	if c.LRWidth <= 0 {
		c.LRWidth = 1280
	}
	if c.LRHeight <= 0 {
		c.LRHeight = 720
	}
	if c.RoIWindow <= 0 {
		// Reserve the RoI merge cost out of the frame budget so the whole
		// upscale stage — not just the NPU pass — meets the deadline.
		c.RoIWindow = c.Device.MaxRoIWindow(device.RealTimeDeadline - c.Device.MergeLatency())
	}
	if c.SimDiv <= 0 {
		c.SimDiv = 4
	}
	if c.GOPSize <= 0 {
		c.GOPSize = 60
	}
	if c.QStep <= 0 {
		c.QStep = 6
	}
	if c.Engine == nil {
		c.Engine = sr.NewFast(sr.FastConfig{})
	}
	if c.FrameStride <= 0 {
		c.FrameStride = c.SimDiv
	}
	return c
}

// simGeometry resolves the simulation-resolution geometry.
func (c Config) simGeometry() (lrW, lrH, roiWin int, err error) {
	lrW = c.LRWidth / c.SimDiv
	lrH = c.LRHeight / c.SimDiv
	if lrW < 16 || lrH < 16 {
		return 0, 0, 0, fmt.Errorf("pipeline: SimDiv %d leaves a %dx%d frame, too small", c.SimDiv, lrW, lrH)
	}
	roiWin = c.RoIWindow / c.SimDiv
	roiWin &^= 1 // even, so the scaled RoI aligns
	if roiWin < 8 {
		roiWin = 8
	}
	if roiWin > lrW {
		roiWin = lrW &^ 1
	}
	if roiWin > lrH {
		roiWin = lrH &^ 1
	}
	return lrW, lrH, roiWin, nil
}

// GameStream runs the GameStreamSR pipeline (ours) alone.
type GameStream struct {
	cfg                Config
	simW, simH, simRoI int
}

// NewGameStream validates the configuration and builds the runner.
func NewGameStream(cfg Config) (*GameStream, error) {
	cfg = cfg.WithDefaults()
	simW, simH, simRoI, err := cfg.simGeometry()
	if err != nil {
		return nil, err
	}
	return &GameStream{cfg: cfg, simW: simW, simH: simH, simRoI: simRoI}, nil
}

// Config returns the effective configuration.
func (g *GameStream) Config() Config { return g.cfg }

// SimSize returns the simulation LR resolution and RoI window.
func (g *GameStream) SimSize() (w, h, roiWin int) { return g.simW, g.simH, g.simRoI }

// Run streams nFrames frames through the staged engine and returns the
// measurements.
func (g *GameStream) Run(nFrames int) (*Result, error) {
	res, err := Run(g.cfg, nFrames, Ours())
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Ours returns the GameStreamSR variant: the RoI-assisted upscale on the
// client, and the paper's latency/energy model in the measure stage.
func Ours() Variant { return gameStreamVariant{} }

type gameStreamVariant struct{}

func (gameStreamVariant) Name() string         { return "gamestreamsr" }
func (gameStreamVariant) ReadsRoI() bool       { return true }
func (gameStreamVariant) KeepsReference() bool { return false }

// Upscale performs the client-side RoI-assisted upscale (UpscaleRoI) into a
// frame from the run's pool; the measure stage recycles it once no later
// frame can reference it.
func (gameStreamVariant) Upscale(cfg *Config, df *codec.DecodedFrame, job *FrameJob, _ *frame.Image) (*frame.Image, error) {
	lr := df.Image
	up := job.Pool.Image(lr.W*sr.Scale, lr.H*sr.Scale)
	if _, err := UpscaleRoI(up, lr, job.RoI, cfg.Engine, job.Pool); err != nil {
		job.Pool.PutImage(up)
		return nil, fmt.Errorf("gamestreamsr: frame %d upscale: %w", job.Index, err)
	}
	return up, nil
}

// UpscaleTimes is when each step of one UpscaleRoI call started and how long
// it ran. The engine ignores it; gssr-client's flight spans and deadline
// accounting are made of it.
type UpscaleTimes struct {
	// TUp/DUp is the bilinear, TSR/DSR the SR and TMerge/DMerge the merge
	// (the last two zero for a zero RoI).
	TUp, TSR, TMerge time.Time
	DUp, DSR, DMerge time.Duration
	// DPair is the wall time of the overlapped bilinear ∥ SR section.
	DPair time.Duration
}

// UpscaleRoI is the client half's RoI-assisted upscale as the paper's
// Fig. 9 draws it, and the one place that composes it: bilinear on the
// whole of lr into dst (the GPU path) on its own goroutine while engine
// super-resolves the RoI — read as a view of lr, not copied — on the
// caller's (the NPU path), then the RoI patch merged over dst. A zero rect is
// the shed ladder's bilinear-only rung: the bilinear runs alone, on the
// caller. dst must be (lr.W·sr.Scale)×(lr.H·sr.Scale), and all of it is
// overwritten; rect must lie inside lr. The RoI patch and every kernel's
// scratch come from pool, which both paths share, and go back to it.
func UpscaleRoI(dst, lr *frame.Image, rect frame.Rect, engine sr.Engine, pool *bufpool.Pool) (UpscaleTimes, error) {
	var ut UpscaleTimes
	if rect.Empty() {
		ut.TUp = time.Now()
		err := upscale.ResizeInto(dst, lr, upscale.Bilinear, pool)
		ut.DUp = time.Since(ut.TUp)
		ut.DPair = ut.DUp
		return ut, err
	}
	view, err := lr.SubImage(rect.X, rect.Y, rect.W, rect.H)
	if err != nil {
		return ut, err
	}
	t0 := time.Now()
	done := make(chan error, 1)
	go func() {
		ut.TUp = time.Now()
		err := upscale.ResizeInto(dst, lr, upscale.Bilinear, pool)
		ut.DUp = time.Since(ut.TUp)
		done <- err
	}()
	ut.TSR = time.Now()
	hr := pool.Image(rect.W*sr.Scale, rect.H*sr.Scale)
	err = engine.UpscaleInto(hr, view, sr.Scale, pool)
	ut.DSR = time.Since(ut.TSR)
	if berr := <-done; err == nil {
		err = berr
	}
	ut.DPair = time.Since(t0)
	if err == nil {
		ut.TMerge = time.Now()
		err = upscale.Merge(dst, hr, rect, sr.Scale)
		ut.DMerge = time.Since(ut.TMerge)
	}
	pool.PutImage(hr)
	return ut, err
}

// Cost models one frame's client latency and per-rail energy.
func (gameStreamVariant) Cost(cfg *Config, job *FrameJob) (Stages, map[device.Rail]float64, error) {
	lrPx := cfg.LRWidth * cfg.LRHeight
	hrPx := lrPx * sr.Scale * sr.Scale
	roiPx := cfg.RoIWindow * cfg.RoIWindow
	roiHRPx := roiPx * sr.Scale * sr.Scale
	dev := cfg.Device
	srLat := dev.SRLatency(roiPx)
	gpuLat := dev.GPUBilinearLatency(hrPx - roiHRPx)
	st := Stages{
		Decode:  dev.HWDecodeLatency(lrPx),
		Upscale: max(srLat, gpuLat) + dev.MergeLatency(),
		Display: dev.DisplayLatency(),
	}

	em := device.NewEnergyMeter(dev)
	em.AddActive(device.RailHWDecoder, st.Decode)
	em.AddActive(device.RailNPU, srLat)
	em.AddActive(device.RailGPU, gpuLat+dev.MergeLatency())
	em.AddActive(device.RailDisplay, dev.DisplayActive())
	em.AddNetworkBytes(job.NominalBytes)
	return st, em.NonZero(), nil
}

// BitrateMbps models the bitrate of a production H.264/H.265-class encoder
// for a 60 FPS stream of px pixels per frame, calibrated to streaming-
// platform recommendations (≈7.5 Mbps at 720p60, ≈24 Mbps at 1440p60).
// Our transparent block codec is deliberately simple and cannot approach
// hardware-codec entropy coding, so transmission and radio energy are
// billed from this model while the codec's real byte counts stay available
// as FrameResult.CodedBytes (substitution recorded in DESIGN.md). The
// model also reproduces §IV-B2's observation: 1 − 7.5/24 ≈ 66% bandwidth
// saving for 720p versus 2K.
func BitrateMbps(px int) float64 {
	if px <= 0 {
		return 0
	}
	return 8.2 * math.Pow(float64(px)/1e6, 0.78)
}

// intraBytesFactor is how much larger a reference frame is than a
// non-reference frame in the modelled stream.
const intraBytesFactor = 4.0

// ModelFrameBytes returns the modelled wire size of one coded frame of type
// t in a 60 FPS stream of px-pixel frames with the given GOP size, such
// that the GOP-average bitrate matches BitrateMbps.
func ModelFrameBytes(px, gopSize int, t codec.FrameType) int {
	if gopSize < 1 {
		gopSize = 1
	}
	avg := BitrateMbps(px) * 1e6 / 8 / 60 // bytes per frame
	g := float64(gopSize)
	inter := avg * g / (g - 1 + intraBytesFactor)
	if t == codec.Intra {
		return int(inter * intraBytesFactor)
	}
	return int(inter)
}
