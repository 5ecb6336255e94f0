package srdecoder

import (
	"testing"
	"time"

	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/device"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/nemo"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/upscale"
)

func testConfig(t testing.TB) pipeline.Config {
	t.Helper()
	g, err := games.ByID("G3")
	if err != nil {
		t.Fatal(err)
	}
	return pipeline.Config{Game: g, SimDiv: 8, GOPSize: 8}
}

func TestValidation(t *testing.T) {
	if _, err := New(pipeline.Config{SimDiv: 500}, upscale.Bicubic); err == nil {
		t.Error("bad geometry should fail")
	}
	r, err := New(testConfig(t), upscale.Bicubic)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(0); err == nil {
		t.Error("zero frames should fail")
	}
}

func TestRunShape(t *testing.T) {
	r, _ := New(testConfig(t), upscale.Bicubic)
	res, err := r.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pipeline != "srdecoder" || len(res.Frames) != 6 {
		t.Fatalf("result = %s, %d", res.Pipeline, len(res.Frames))
	}
	// Non-reference frames bypass the upscale engine entirely.
	for _, f := range res.Frames[1:] {
		if f.Stages.Upscale != 0 {
			t.Errorf("frame %d upscale stage should be bypassed", f.Index)
		}
		if f.Energy[device.RailNPU] != 0 || f.Energy[device.RailGPU] != 0 || f.Energy[device.RailCPU] != 0 {
			t.Errorf("frame %d should only bill the decoder/display/radio", f.Index)
		}
		// The SR-integrated decode must still be real-time.
		if f.Stages.Decode > device.RealTimeDeadline {
			t.Errorf("frame %d decode %v misses the deadline", f.Index, f.Stages.Decode)
		}
	}
	// Reference frame keeps our RoI path.
	if res.Frames[0].Energy[device.RailNPU] <= 0 {
		t.Error("reference frame should bill the NPU")
	}
}

func TestEnergySavingsVsBaselines(t *testing.T) {
	// §VI: the SR-integrated decoder is expected to save substantially more
	// than the software pipelines — "as high as 50%" versus the SOTA.
	cfg := testConfig(t)
	cfg.GOPSize = 6
	fut, _ := New(cfg, upscale.Bicubic)
	futRes, err := fut.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := nemo.New(cfg)
	baseRes, err := base.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	ours, _ := pipeline.NewGameStream(cfg)
	oursRes, err := ours.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	futE, _ := futRes.GOPEnergyTotal(60)
	baseE, _ := baseRes.GOPEnergyTotal(60)
	oursE, _ := oursRes.GOPEnergyTotal(60)
	savings := 1 - futE/baseE
	if savings < 0.45 {
		t.Errorf("SR-integrated decoder saves %.1f%% vs SOTA, want ≥45%%", savings*100)
	}
	if futE >= oursE {
		t.Errorf("future-work energy %.2f J should undercut ours %.2f J", futE, oursE)
	}
	t.Logf("GOP energy: srdecoder %.2f J, ours %.2f J, NEMO %.2f J (saving vs SOTA %.1f%%)",
		futE, oursE, baseE, savings*100)
}

func TestRoIGuidedBeatsUniformBilinear(t *testing.T) {
	// The design point of Fig. 15 step ❸: bicubic residual interpolation in
	// the RoI must not degrade quality versus uniform bilinear, and should
	// improve it.
	cfg := testConfig(t)
	cfg.GOPSize = 10
	bicubic, _ := New(cfg, upscale.Bicubic)
	resB, err := bicubic.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	bilinear, _ := New(cfg, upscale.Bilinear)
	resL, err := bilinear.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := resB.MeanPSNR()
	pl, _ := resL.MeanPSNR()
	if pb < pl {
		t.Errorf("RoI-guided bicubic PSNR %.2f below uniform bilinear %.2f", pb, pl)
	}
	t.Logf("RoI-guided bicubic %.3f dB vs uniform bilinear %.3f dB", pb, pl)
}

func TestQualityDecayBounded(t *testing.T) {
	// Like NEMO, the future-work pipeline reuses the reference; quality
	// decays within a GOP, but it must stay within a sane band and recover
	// at the next reference.
	cfg := testConfig(t)
	cfg.GOPSize = 5
	r, _ := New(cfg, upscale.Bicubic)
	res, err := r.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames[5].Type != codec.Intra {
		t.Fatal("frame 5 should be a reference")
	}
	if res.Frames[5].PSNR <= res.Frames[4].PSNR {
		t.Error("reference frame should recover quality")
	}
	for _, f := range res.Frames {
		if f.PSNR < 25 {
			t.Errorf("frame %d PSNR %.1f collapsed", f.Index, f.PSNR)
		}
	}
}

func TestReconstructRoIGuidedValidation(t *testing.T) {
	hr := frame.NewImage(32, 32)
	roi := frame.Rect{X: 0, Y: 0, W: 8, H: 8}
	out := frame.NewImagePacked(32, 32)
	if err := ReconstructRoIGuidedInto(out, hr, nil, 2, roi, upscale.Bicubic, nil); err == nil {
		t.Error("nil side should fail")
	}
	side := &codec.SideInfo{BlocksX: 1, BlocksY: 1, BlockSize: 16, MVs: make([]codec.MV, 1)}
	for p := 0; p < 3; p++ {
		side.Residual[p] = make([]int16, 16*16)
	}
	if err := ReconstructRoIGuidedInto(out, hr, side, 0, roi, upscale.Bicubic, nil); err == nil {
		t.Error("zero scale should fail")
	}
	if err := ReconstructRoIGuidedInto(frame.NewImagePacked(31, 32), frame.NewImage(31, 32), side, 2, roi, upscale.Bicubic, nil); err == nil {
		t.Error("non-multiple frame should fail")
	}
	side.Residual[0] = make([]int16, 10)
	if err := ReconstructRoIGuidedInto(out, hr, side, 2, roi, upscale.Bicubic, nil); err == nil {
		t.Error("mismatched residual plane should fail")
	}
}

func TestReconstructRoIGuidedIdentity(t *testing.T) {
	hr := frame.NewImage(32, 32)
	for i := range hr.R {
		hr.R[i] = uint8(i % 250)
	}
	side := &codec.SideInfo{BlocksX: 2, BlocksY: 2, BlockSize: 8, MVs: make([]codec.MV, 4)}
	for p := 0; p < 3; p++ {
		side.Residual[p] = make([]int16, 16*16)
	}
	out := frame.NewImagePacked(hr.W, hr.H)
	if err := ReconstructRoIGuidedInto(out, hr, side, 2, frame.Rect{X: 2, Y: 2, W: 8, H: 8}, upscale.Bicubic, nil); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(hr) {
		t.Error("zero MV + zero residual should reproduce the reference")
	}
}

func TestNonRefThroughputRealTime(t *testing.T) {
	// The bypass path must sustain well above 60 FPS so the whole design
	// stays real-time without the NPU.
	r, _ := New(testConfig(t), upscale.Lanczos3)
	res, err := r.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Frames[1:] {
		perFrame := f.Stages.Decode + f.Stages.Upscale
		if perFrame > 16*time.Millisecond {
			t.Errorf("frame %d client path %v too slow", f.Index, perFrame)
		}
	}
}
