package nemo

import (
	"testing"
	"time"

	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/device"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/metrics"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/testkit"
)

func testConfig(t testing.TB) pipeline.Config {
	t.Helper()
	g, err := games.ByID("G3")
	if err != nil {
		t.Fatal(err)
	}
	return pipeline.Config{Game: g, SimDiv: 8, GOPSize: 8}
}

// run streams n frames of cfg through vs on one pass.
func run(t testing.TB, cfg pipeline.Config, n int, vs ...pipeline.Variant) []*pipeline.Result {
	t.Helper()
	res, err := pipeline.Run(cfg, n, vs...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunBasics(t *testing.T) {
	res := run(t, testConfig(t), 8, New())[0]
	if res.Pipeline != "nemo" || len(res.Frames) != 8 {
		t.Fatalf("result = %s, %d frames", res.Pipeline, len(res.Frames))
	}
	if res.Frames[0].Type != codec.Intra {
		t.Error("first frame should be the reference")
	}
	for _, f := range res.Frames[1:] {
		if f.Type != codec.Inter {
			t.Errorf("frame %d should be non-reference", f.Index)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := pipeline.Run(pipeline.Config{SimDiv: 500}, 1, New()); err == nil {
		t.Error("bad geometry should fail")
	}
	if _, err := pipeline.Run(testConfig(t), 0, New()); err == nil {
		t.Error("zero frames should fail")
	}
}

func TestReferenceFrameViolatesDeadline(t *testing.T) {
	// The whole point of the paper's Fig. 2: NEMO's reference-frame
	// upscaling takes ≈216 ms on the S8, far beyond 16.66 ms, while the
	// non-reference path also misses the deadline.
	res := run(t, testConfig(t), 4, New())[0]
	ref := res.Frames[0].Stages.Upscale
	if ref < 200*time.Millisecond || ref > 230*time.Millisecond {
		t.Errorf("reference upscale = %v, want ≈216 ms", ref)
	}
	nonref := res.Frames[1].Stages.Upscale
	if nonref <= device.RealTimeDeadline {
		t.Errorf("non-reference upscale %v should violate 16.66 ms", nonref)
	}
	if nonref > 30*time.Millisecond {
		t.Errorf("non-reference upscale %v implausibly slow", nonref)
	}
}

func TestPSNRDecaysAcrossGOP(t *testing.T) {
	// Fig. 13: NEMO starts high at the reference frame and decays across
	// the GOP as bilinear reconstruction errors accumulate.
	cfg := testConfig(t)
	cfg.GOPSize = 10
	res := run(t, cfg, 10, New())[0]
	first := res.Frames[0].PSNR
	last := res.Frames[9].PSNR
	if last >= first-0.5 {
		t.Errorf("PSNR did not decay: ref %.2f dB → last %.2f dB", first, last)
	}
	// Decay should be roughly monotonic in trend: mean of the last three
	// below mean of frames 1-3.
	early := (res.Frames[1].PSNR + res.Frames[2].PSNR + res.Frames[3].PSNR) / 3
	late := (res.Frames[7].PSNR + res.Frames[8].PSNR + res.Frames[9].PSNR) / 3
	if late >= early {
		t.Errorf("no error accumulation: early %.2f dB, late %.2f dB", early, late)
	}
}

func TestNEMORecoversAtNextReference(t *testing.T) {
	cfg := testConfig(t)
	cfg.GOPSize = 5
	res := run(t, cfg, 10, New())[0]
	// Frame 5 is a new reference: PSNR jumps back up (the sawtooth of
	// Fig. 13).
	if res.Frames[5].Type != codec.Intra {
		t.Fatal("frame 5 should be a reference")
	}
	if res.Frames[5].PSNR <= res.Frames[4].PSNR {
		t.Errorf("reference did not recover quality: %.2f vs %.2f dB",
			res.Frames[5].PSNR, res.Frames[4].PSNR)
	}
}

func TestReconstructHRValidation(t *testing.T) {
	hr := frame.NewImage(32, 32)
	out := frame.NewImagePacked(32, 32)
	if err := ReconstructHRInto(out, hr, nil, nil); err == nil {
		t.Error("nil side info should fail")
	}
	side := &codec.SideInfo{BlocksX: 1, BlocksY: 1, BlockSize: 16, W: 16, H: 16, MVs: make([]codec.MV, 1)}
	if err := ReconstructHRInto(frame.NewImagePacked(33, 32), frame.NewImage(33, 32), side, nil); err == nil {
		t.Error("non-multiple HR size should fail")
	}
	if err := ReconstructHRInto(out, hr, side, nil); err != nil {
		t.Errorf("valid reconstruction failed: %v", err)
	}
	// Side info for a smaller LR frame than the HR frame is ×2 of: its
	// residual planes would be read past their end.
	short := &codec.SideInfo{BlocksX: 1, BlocksY: 1, BlockSize: 16, W: 5, H: 2, MVs: make([]codec.MV, 1)}
	if err := ReconstructHRInto(out, hr, short, nil); err == nil {
		t.Error("mismatched side geometry should fail")
	}
}

func TestReconstructHRZeroMotionZeroResidual(t *testing.T) {
	// With no motion and no residual, reconstruction is the previous frame.
	hr := frame.NewImage(32, 32)
	for i := range hr.R {
		hr.R[i] = uint8(i % 251)
		hr.G[i] = uint8((i * 7) % 251)
		hr.B[i] = uint8((i * 13) % 251)
	}
	side := &codec.SideInfo{BlocksX: 2, BlocksY: 2, BlockSize: 8, W: 16, H: 16, MVs: make([]codec.MV, 4)}
	out := frame.NewImagePacked(hr.W, hr.H)
	if err := ReconstructHRInto(out, hr, side, nil); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(hr) {
		t.Error("identity reconstruction should copy the previous frame")
	}
}

func TestReconstructHRAppliesScaledMotion(t *testing.T) {
	// A single block with MV (1, 0) at scale 2 must fetch pixels from 2
	// columns to the right in the HR reference.
	hr := frame.NewImage(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			hr.Set(x, y, uint8(x*10), 0, 0)
		}
	}
	side := &codec.SideInfo{BlocksX: 1, BlocksY: 1, BlockSize: 8, W: 8, H: 8, MVs: []codec.MV{{DX: 1, DY: 0}}}
	out := frame.NewImagePacked(hr.W, hr.H)
	if err := ReconstructHRInto(out, hr, side, nil); err != nil {
		t.Fatal(err)
	}
	r, _, _ := testkit.At(out, 5, 5)
	wr, _, _ := testkit.At(hr, 7, 5)
	if r != wr {
		t.Errorf("motion not applied: got %d, want %d", r, wr)
	}
}

func TestEnergyUsesCPUNotHWDecoder(t *testing.T) {
	res := run(t, testConfig(t), 4, New())[0]
	for _, f := range res.Frames {
		if f.Energy[device.RailHWDecoder] != 0 {
			t.Errorf("frame %d billed the HW decoder — NEMO cannot use it", f.Index)
		}
		if f.Energy[device.RailCPU] <= 0 {
			t.Errorf("frame %d has no CPU energy", f.Index)
		}
	}
	// Reference frame: NPU energy present; non-reference: none.
	if res.Frames[0].Energy[device.RailNPU] <= 0 {
		t.Error("reference frame should bill the NPU")
	}
	if res.Frames[1].Energy[device.RailNPU] != 0 {
		t.Error("non-reference frame should not bill the NPU")
	}
}

// The headline comparisons of Fig. 10a/11: run both pipelines on the same
// configuration and compare.
func TestOursVsNEMOHeadline(t *testing.T) {
	for _, dev := range device.Profiles() {
		cfg := testConfig(t)
		cfg.Device = dev
		cfg.GOPSize = 6
		res := run(t, cfg, 6, pipeline.Ours(), New())
		oursRes, baseRes := res[0], res[1]

		// Fig. 10a: reference-frame upscale speedup ≈13–14×.
		oursRef, _ := oursRes.MeanUpscale(codec.Intra)
		baseRef, _ := baseRes.MeanUpscale(codec.Intra)
		refSpeedup := float64(baseRef) / float64(oursRef)
		if refSpeedup < 11.5 || refSpeedup > 15.5 {
			t.Errorf("%s: reference speedup %.1f×, want ≈13–14×", dev.Name, refSpeedup)
		}
		// Non-reference speedup ≈1.6×.
		oursNon, _ := oursRes.MeanUpscale(codec.Inter)
		baseNon, _ := baseRes.MeanUpscale(codec.Inter)
		nonSpeedup := float64(baseNon) / float64(oursNon)
		if nonSpeedup < 1.4 || nonSpeedup > 1.8 {
			t.Errorf("%s: non-reference speedup %.2f×, want ≈1.6×", dev.Name, nonSpeedup)
		}
		// Fig. 10b: reference-frame MTP improvement ≈3.8–4×.
		oursMTP, _ := oursRes.MeanMTP(codec.Intra)
		baseMTP, _ := baseRes.MeanMTP(codec.Intra)
		mtpGain := float64(baseMTP) / float64(oursMTP)
		if mtpGain < 3.2 || mtpGain > 4.8 {
			t.Errorf("%s: MTP improvement %.1f×, want ≈3.8–4×", dev.Name, mtpGain)
		}
		// Fig. 11: energy savings ≈26% (S8) / 33% (Pixel) per 60-frame GOP.
		oursE, err := oursRes.GOPEnergyTotal(60)
		if err != nil {
			t.Fatal(err)
		}
		baseE, err := baseRes.GOPEnergyTotal(60)
		if err != nil {
			t.Fatal(err)
		}
		savings := 1 - oursE/baseE
		if savings < 0.20 || savings > 0.40 {
			t.Errorf("%s: energy savings %.1f%%, want 26–33%%", dev.Name, savings*100)
		}
		t.Logf("%s: ref %.1f×, non-ref %.2f×, MTP %.1f×, energy %.1f%% (ours %.2f J vs %.2f J)",
			dev.Name, refSpeedup, nonSpeedup, mtpGain, savings*100, oursE, baseE)
	}
}

func TestQualityOrdering(t *testing.T) {
	// Fig. 14: across a GOP our design has higher mean PSNR and lower
	// LPIPS than NEMO. NEMO's reference frame is legitimately sharper, so
	// the ordering emerges from the accumulated non-reference drift —
	// a GOP long enough for the drift to dominate is required.
	cfg := testConfig(t)
	cfg.GOPSize = 12
	res := run(t, cfg, 12, pipeline.Ours(), New())
	oursRes, baseRes := res[0], res[1]
	op, _ := oursRes.MeanPSNR()
	bp, _ := baseRes.MeanPSNR()
	if op <= bp {
		t.Errorf("our PSNR %.2f dB should beat NEMO %.2f dB", op, bp)
	}
	ol, _ := oursRes.MeanLPIPS()
	bl, _ := baseRes.MeanLPIPS()
	if ol >= bl {
		t.Errorf("our LPIPS %.3f should be below NEMO %.3f", ol, bl)
	}
	t.Logf("PSNR: ours %.2f vs NEMO %.2f dB; LPIPS: ours %.3f vs %.3f", op, bp, ol, bl)
}

func TestOursSteadierThanNEMO(t *testing.T) {
	// Beyond mean quality: our per-frame PSNR series must flicker less
	// than the SOTA's GOP sawtooth (metrics.TemporalStability, lower is
	// steadier).
	cfg := testConfig(t)
	cfg.GOPSize = 10
	res := run(t, cfg, 10, pipeline.Ours(), New())
	oursRes, baseRes := res[0], res[1]
	series := func(r *pipeline.Result) []float64 {
		out := make([]float64, len(r.Frames))
		for i, f := range r.Frames {
			out[i] = f.PSNR
		}
		return out
	}
	os, err := metrics.TemporalStability(series(oursRes))
	if err != nil {
		t.Fatal(err)
	}
	bs, err := metrics.TemporalStability(series(baseRes))
	if err != nil {
		t.Fatal(err)
	}
	if os > bs {
		t.Errorf("our flicker %.3f dB/frame exceeds SOTA %.3f", os, bs)
	}
	t.Logf("quality flicker: ours %.3f dB/frame, SOTA %.3f dB/frame", os, bs)
}
