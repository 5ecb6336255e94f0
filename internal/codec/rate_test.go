package codec

import (
	"testing"
	"time"

	"gamestreamsr/internal/testkit"
)

func TestNewRateControllerValidation(t *testing.T) {
	if _, err := NewRateController(0, 6); err == nil {
		t.Error("zero bitrate should fail")
	}
	if _, err := NewRateController(-1, 6); err == nil {
		t.Error("negative bitrate should fail")
	}
	rc, err := NewRateController(1e6, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rc.QStep() != rc.MaxQ {
		t.Errorf("start quantizer should clamp to MaxQ, got %d", rc.QStep())
	}
	rc2, _ := NewRateController(1e6, 0)
	if rc2.QStep() != rc2.MinQ {
		t.Errorf("start quantizer should clamp to MinQ, got %d", rc2.QStep())
	}
}

func TestRateControllerRaisesQWhenOverBudget(t *testing.T) {
	rc, _ := NewRateController(1e6, 6) // 1 Mbps → ~2083 B/frame
	start := rc.QStep()
	for i := 0; i < 30; i++ {
		rc.Observe(10_000) // consistently 5x over budget
	}
	if rc.QStep() <= start {
		t.Errorf("quantizer did not rise under overload: %d", rc.QStep())
	}
}

func TestRateControllerLowersQWhenUnderBudget(t *testing.T) {
	rc, _ := NewRateController(1e6, 12)
	start := rc.QStep()
	for i := 0; i < 30; i++ {
		rc.Observe(100) // almost nothing
	}
	if rc.QStep() >= start {
		t.Errorf("quantizer did not fall under light load: %d", rc.QStep())
	}
	if rc.QStep() < rc.MinQ {
		t.Errorf("quantizer below MinQ")
	}
}

func TestRateControllerBufferDelay(t *testing.T) {
	rc, _ := NewRateController(8e6, 6) // 1 MB/s drain
	// Half-full 30-frame buffer at 8 Mbps: capacity = 1MB/60*30 = 500 KB,
	// buffer = 250 KB → 250 ms drain time.
	if d := rc.BufferDelay(); d < 240*time.Millisecond || d > 260*time.Millisecond {
		t.Errorf("initial buffer delay = %v, want ≈250 ms", d)
	}
	for i := 0; i < 100; i++ {
		rc.Observe(0)
	}
	if rc.BufferDelay() != 0 {
		t.Errorf("drained buffer delay = %v", rc.BufferDelay())
	}
}

func TestRatedEncoderConvergesToTarget(t *testing.T) {
	// Stream G3 frames through the rated encoder with a target the default
	// quantizer overshoots; the produced rate must converge near target.
	frames := gameFrames(t, "G3", 0, 24, 160, 90)
	target := 2.5e6 // bits/s at 60 FPS → ≈5.2 KB/frame
	re, err := NewRatedEncoder(Config{Width: 160, Height: 90, QStep: 2, GOPSize: 60}, target)
	if err != nil {
		t.Fatal(err)
	}
	var lastBytes []int
	for i, f := range frames {
		data, _, err := re.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(frames)-8 {
			lastBytes = append(lastBytes, len(data))
		}
	}
	mean := 0.0
	for _, b := range lastBytes {
		mean += float64(b)
	}
	mean /= float64(len(lastBytes))
	perFrameTarget := target / 8 / 60
	if mean > perFrameTarget*2.0 {
		t.Errorf("steady-state frame size %.0f B far above target %.0f B", mean, perFrameTarget)
	}
	// And the quantizer must have moved off its seed.
	if re.Controller().QStep() == 2 {
		t.Error("quantizer never adapted")
	}
	// The stream must still decode end to end despite quantizer changes.
	dec := NewDecoder()
	re2, _ := NewRatedEncoder(Config{Width: 160, Height: 90, QStep: 2, GOPSize: 60}, target)
	for i, f := range frames[:8] {
		data, _, err := re2.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		df, err := dec.Decode(data)
		if err != nil {
			t.Fatalf("frame %d failed to decode after rate adaptation: %v", i, err)
		}
		if p := testkit.PSNR(f, df.Image); p < 28 {
			t.Errorf("frame %d PSNR %.1f collapsed under rate control", i, p)
		}
	}
}

func TestRatedEncoderValidation(t *testing.T) {
	if _, err := NewRatedEncoder(Config{Width: 0, Height: 10}, 1e6); err == nil {
		t.Error("bad geometry should fail")
	}
	if _, err := NewRatedEncoder(Config{Width: 16, Height: 16}, 0); err == nil {
		t.Error("bad bitrate should fail")
	}
}
