package pipeline

import (
	"math"
	"sync"
	"testing"
	"time"

	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/device"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/roi"
)

// testConfig returns a small fast configuration: G3, sim at 160×90,
// GOP of 4.
func testConfig(t testing.TB) Config {
	t.Helper()
	g, err := games.ByID("G3")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Game:    g,
		SimDiv:  8,
		GOPSize: 4,
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.Device == nil || cfg.Game == nil || cfg.Engine == nil {
		t.Fatal("defaults not filled")
	}
	if cfg.LRWidth != 1280 || cfg.LRHeight != 720 || cfg.Scale != 2 || cfg.GOPSize != 60 {
		t.Errorf("stream defaults = %+v", cfg)
	}
	// RoI window probed from the device: ≈300 for the S8.
	if cfg.RoIWindow < 290 || cfg.RoIWindow > 310 {
		t.Errorf("probed RoI window = %d", cfg.RoIWindow)
	}
}

func TestSimGeometry(t *testing.T) {
	cfg := Config{SimDiv: 8}.WithDefaults()
	w, h, r, err := cfg.simGeometry()
	if err != nil {
		t.Fatal(err)
	}
	if w != 160 || h != 90 {
		t.Errorf("sim = %dx%d", w, h)
	}
	if r%2 != 0 || r < 8 || r > h {
		t.Errorf("sim RoI = %d", r)
	}
	// Too-aggressive scaling fails.
	bad := Config{SimDiv: 100}.WithDefaults()
	if _, _, _, err := bad.simGeometry(); err == nil {
		t.Error("tiny sim should fail")
	}
}

func TestRunValidation(t *testing.T) {
	gs, err := NewGameStream(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gs.Run(0); err == nil {
		t.Error("zero frames should fail")
	}
	if _, err := NewGameStream(Config{SimDiv: 500}); err == nil {
		t.Error("bad geometry should fail at construction")
	}
}

func TestGameStreamRun(t *testing.T) {
	gs, err := NewGameStream(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := gs.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 5 {
		t.Fatalf("got %d frames", len(res.Frames))
	}
	if res.Pipeline != "gamestreamsr" {
		t.Error("pipeline name")
	}
	// GOP structure: frame 0 and 4 intra (GOPSize 4).
	if res.Frames[0].Type != codec.Intra || res.Frames[4].Type != codec.Intra {
		t.Error("intra cadence wrong")
	}
	if res.Frames[1].Type != codec.Inter {
		t.Error("inter cadence wrong")
	}
	simW, simH, simRoI := gs.SimSize()
	for _, f := range res.Frames {
		if !f.RoI.In(simW, simH) || f.RoI.W != simRoI {
			t.Errorf("frame %d RoI %v outside %dx%d", f.Index, f.RoI, simW, simH)
		}
		if f.PSNR < 20 || f.PSNR > 60 {
			t.Errorf("frame %d PSNR %.1f implausible", f.Index, f.PSNR)
		}
		if f.SSIM <= 0 || f.SSIM > 1 || f.LPIPS < 0 || f.LPIPS > 1 {
			t.Errorf("frame %d quality out of range", f.Index)
		}
		if f.Bytes <= 0 {
			t.Errorf("frame %d no bytes", f.Index)
		}
		if len(f.Energy) == 0 {
			t.Errorf("frame %d no energy", f.Index)
		}
		if f.Upscaled != nil {
			t.Error("frames retained without KeepFrames")
		}
	}
}

// recordingTap records every PublishFrame call's index, key flag and size;
// a tap that kept the payload would have to copy it — the engine recycles
// its buffer.
type recordingTap struct {
	mu    sync.Mutex
	idx   []int
	keys  []bool
	sizes []int
}

func (r *recordingTap) PublishFrame(index int, payload []byte, key bool, _ frame.Rect) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.idx = append(r.idx, index)
	r.keys = append(r.keys, key)
	r.sizes = append(r.sizes, len(payload))
}

// TestEncodeTap: the tap sees every encoded frame exactly once, in encode
// order, with the GOP's intra cadence — and tapping does not perturb the
// pipeline's results (same frame bytes as an untapped run).
func TestEncodeTap(t *testing.T) {
	const nFrames = 8
	base, err := NewGameStream(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := base.Run(nFrames)
	if err != nil {
		t.Fatal(err)
	}

	tap := &recordingTap{}
	cfg := testConfig(t)
	cfg.Tap = tap
	gs, err := NewGameStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gs.Run(nFrames)
	if err != nil {
		t.Fatal(err)
	}

	tap.mu.Lock()
	defer tap.mu.Unlock()
	if len(tap.idx) != nFrames {
		t.Fatalf("tap saw %d frames, want %d", len(tap.idx), nFrames)
	}
	for i := 0; i < nFrames; i++ {
		if tap.idx[i] != i {
			t.Fatalf("tap order = %v, want 0..%d in sequence", tap.idx, nFrames-1)
		}
		wantKey := i%4 == 0 // testConfig GOPSize is 4
		if tap.keys[i] != wantKey {
			t.Errorf("frame %d tapped key=%v, want %v", i, tap.keys[i], wantKey)
		}
		// The tap sees the raw encoder bitstream; FrameResult.Bytes is the
		// modelled wire size, so only check the payload actually exists.
		if tap.sizes[i] == 0 {
			t.Errorf("frame %d tapped with empty payload", i)
		}
	}
	// Determinism: the tap is observe-only.
	for i := range baseline.Frames {
		if baseline.Frames[i].Bytes != res.Frames[i].Bytes || baseline.Frames[i].PSNR != res.Frames[i].PSNR {
			t.Errorf("frame %d differs under tap: %dB/%.2f vs %dB/%.2f", i,
				baseline.Frames[i].Bytes, baseline.Frames[i].PSNR, res.Frames[i].Bytes, res.Frames[i].PSNR)
		}
	}
}

func TestGameStreamRealTime(t *testing.T) {
	// The headline claim: every frame's upscale stage meets 16.66 ms, and
	// reference and non-reference frames cost the same (our pipeline is
	// frame-type agnostic).
	gs, _ := NewGameStream(testConfig(t))
	res, err := gs.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Frames {
		if f.Stages.Upscale > device.RealTimeDeadline {
			t.Errorf("frame %d upscale %.2f ms misses deadline", f.Index,
				float64(f.Stages.Upscale)/float64(time.Millisecond))
		}
	}
	ref, _ := res.MeanUpscale(codec.Intra)
	nonref, _ := res.MeanUpscale(codec.Inter)
	if ref != nonref {
		t.Errorf("ref %.2f vs non-ref %.2f ms — ours should be identical", msOf(ref), msOf(nonref))
	}
	// Upscale FPS ≈ 60+ (paper: 61.7 on the S8).
	fps, err := res.UpscaleFPS(codec.Intra)
	if err != nil {
		t.Fatal(err)
	}
	if fps < 58 || fps > 70 {
		t.Errorf("upscale FPS = %.1f, want ≈61", fps)
	}
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func TestGameStreamMTPUnderBudget(t *testing.T) {
	// Paper: our MTP stays below 70 ms for all frames.
	gs, _ := NewGameStream(testConfig(t))
	res, err := gs.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Frames {
		if mtp := f.Stages.MTP(); mtp > 70*time.Millisecond {
			t.Errorf("frame %d MTP %.1f ms exceeds 70 ms", f.Index, msOf(mtp))
		}
	}
}

func TestKeepFrames(t *testing.T) {
	cfg := testConfig(t)
	cfg.KeepFrames = true
	gs, _ := NewGameStream(cfg)
	res, err := gs.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	eff := gs.Config()
	for _, f := range res.Frames {
		if f.Upscaled == nil {
			t.Fatal("KeepFrames did not retain frames")
		}
		wantW := eff.LRWidth / eff.SimDiv * eff.Scale
		if f.Upscaled.W != wantW {
			t.Errorf("upscaled width %d, want %d", f.Upscaled.W, wantW)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, _ := NewGameStream(testConfig(t))
	b, _ := NewGameStream(testConfig(t))
	ra, err := a.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra.Frames {
		if ra.Frames[i].PSNR != rb.Frames[i].PSNR || ra.Frames[i].RoI != rb.Frames[i].RoI {
			t.Fatalf("frame %d differs between identical runs", i)
		}
	}
}

func TestStagesMTPAndOrder(t *testing.T) {
	s := Stages{
		Input: 1, Render: 2, RoIDetect: 3, Encode: 4,
		Transmit: 5, Decode: 6, Upscale: 7, Display: 8,
	}
	if s.MTP() != 36 {
		t.Errorf("MTP = %d", s.MTP())
	}
	names := s.Names()
	vals := s.Values()
	if len(names) != len(vals) || len(names) != 8 {
		t.Fatal("names/values mismatch")
	}
	for i, v := range vals {
		if v != time.Duration(i+1) {
			t.Errorf("value %d = %v", i, v)
		}
	}
}

func TestResultAccessors(t *testing.T) {
	gs, _ := NewGameStream(testConfig(t))
	res, err := gs.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.ByType(codec.Intra)); got != 2 {
		t.Errorf("intra count = %d", got)
	}
	if _, err := res.MeanUpscale(codec.FrameType(9)); err == nil {
		t.Error("unknown type should fail")
	}
	if _, err := (&Result{}).MeanPSNR(); err == nil {
		t.Error("empty result should fail")
	}
	p, err := res.MeanPSNR()
	if err != nil || p < 20 {
		t.Errorf("mean PSNR = %f, %v", p, err)
	}
	if _, err := res.MeanLPIPS(); err != nil {
		t.Error(err)
	}
}

func TestGOPEnergy(t *testing.T) {
	gs, _ := NewGameStream(testConfig(t))
	res, err := gs.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	gop, err := res.GOPEnergy(60)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, j := range gop {
		total += j
	}
	// Our 60-frame GOP energy on the S8 should land in the few-joule
	// band (see device calibration).
	if total < 2 || total > 8 {
		t.Errorf("GOP energy = %.2f J, outside sanity band", total)
	}
	tt, err := res.GOPEnergyTotal(60)
	if err != nil || math.Abs(tt-total) > 1e-9 {
		t.Error("GOPEnergyTotal disagrees with GOPEnergy")
	}
	// Single-frame GOP = reference only.
	one, err := res.GOPEnergy(1)
	if err != nil {
		t.Fatal(err)
	}
	oneTotal := 0.0
	for _, j := range one {
		oneTotal += j
	}
	if oneTotal >= total {
		t.Error("1-frame GOP should cost less than 60")
	}
	if _, err := res.GOPEnergy(0); err == nil {
		t.Error("invalid GOP size should fail")
	}
}

func TestUpscaleEnergyDominates(t *testing.T) {
	// Paper Fig. 12: in our design the upscale engines (NPU+GPU) dominate
	// the pipeline energy and decode is small.
	cfg := testConfig(t)
	cfg.Device = device.Pixel7Pro()
	gs, _ := NewGameStream(cfg)
	res, err := gs.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	gop, err := res.GOPEnergy(60)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, j := range gop {
		total += j
	}
	upscale := gop[device.RailNPU] + gop[device.RailGPU]
	if share := upscale / total; share < 0.75 || share > 0.95 {
		t.Errorf("upscale energy share = %.2f, want ≈0.85", share)
	}
	if share := gop[device.RailHWDecoder] / total; share < 0.02 || share > 0.12 {
		t.Errorf("decode energy share = %.2f, want ≈0.06", share)
	}
}

func BenchmarkGameStreamFrame(b *testing.B) {
	g, _ := games.ByID("G3")
	gs, err := NewGameStream(Config{Game: g, SimDiv: 8, GOPSize: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gs.Run(1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRoITrackingReducesTravel(t *testing.T) {
	base := testConfig(t)
	travel := func(cfg Config) int {
		gs, err := NewGameStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := gs.Run(8)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for i := 1; i < len(res.Frames); i++ {
			a, b := res.Frames[i-1].RoI, res.Frames[i].RoI
			total += abs(a.X-b.X) + abs(a.Y-b.Y)
		}
		return total
	}
	raw := travel(base)
	tracked := base
	tracked.RoITrack = &roi.TrackConfig{Hysteresis: 0.15, MaxStep: 6}
	smooth := travel(tracked)
	if smooth > raw {
		t.Errorf("tracked travel %d exceeds raw %d", smooth, raw)
	}
	t.Logf("RoI travel: raw %d px, tracked %d px", raw, smooth)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestPipelineAtABRLadderGeometries(t *testing.T) {
	// The pipeline must run at a 360p…720p bitrate ladder's geometries, not
	// just the paper's 720p operating point; the RoI budget then covers a
	// growing fraction of the frame.
	g, _ := games.ByID("G5")
	rungs := []struct {
		name string
		w, h int
	}{{"360p", 640, 360}, {"480p", 854, 480}, {"720p", 1280, 720}}
	var lastFrac float64 = 2
	for _, r := range rungs {
		cfg := Config{Game: g, LRWidth: r.w, LRHeight: r.h, SimDiv: 4, GOPSize: 3}
		gs, err := NewGameStream(cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		res, err := gs.Run(3)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if p, _ := res.MeanPSNR(); p < 20 {
			t.Errorf("%s: PSNR %.1f implausible", r.name, p)
		}
		simW, simH, roiWin := gs.SimSize()
		frac := float64(roiWin*roiWin) / float64(simW*simH)
		if frac >= lastFrac {
			t.Errorf("%s: RoI fraction %.2f should shrink as resolution grows", r.name, frac)
		}
		lastFrac = frac
	}
}
