package device

import (
	"math"
	"testing"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// The latency model must hit the paper's calibration points.
func TestSRLatencyCalibration(t *testing.T) {
	cases := []struct {
		p      *Profile
		px     int
		wantMS float64
		tol    float64
	}{
		{TabS8(), 300 * 300, 16.2, 0.3},     // RoI window (§IV-B1)
		{TabS8(), 1280 * 720, 216, 3},       // full 720p frame (≈4.6 FPS)
		{Pixel7Pro(), 300 * 300, 16.0, 0.5}, // ≈16.4 ms incl. merge
		{Pixel7Pro(), 1280 * 720, 233, 3},   // ≈4.3 FPS
	}
	for _, c := range cases {
		got := ms(c.p.SRLatency(c.px))
		if math.Abs(got-c.wantMS) > c.tol {
			t.Errorf("%s SRLatency(%d) = %.2f ms, want %.2f ± %.2f", c.p.Name, c.px, got, c.wantMS, c.tol)
		}
	}
}

func TestSRLatencyMonotone(t *testing.T) {
	p := TabS8()
	prev := time.Duration(0)
	for _, px := range []int{0, 100, 10000, 90000, 400000, 921600} {
		l := p.SRLatency(px)
		if l < prev {
			t.Fatalf("latency not monotone at %d px", px)
		}
		prev = l
	}
}

func TestSRLatencyScaled(t *testing.T) {
	p := TabS8()
	base := p.SRLatency(90000)
	same := p.SRLatencyScaled(90000, 2)
	if math.Abs(ms(base)-ms(same)) > 1e-6 {
		t.Errorf("factor 2 should reproduce the base model: %v vs %v", base, same)
	}
	// Higher factors cost more, lower factors less.
	if p.SRLatencyScaled(90000, 4) <= base {
		t.Error("×4 should cost more than ×2")
	}
	if p.SRLatencyScaled(90000, 1.5) >= base {
		t.Error("×1.5 should cost less than ×2")
	}
	if p.SRLatencyScaled(0, 2) != 0 || p.SRLatencyScaled(100, 0) != 0 {
		t.Error("degenerate inputs should cost 0")
	}
}

func TestGPUBilinearCalibration(t *testing.T) {
	// Paper §IV-C: non-RoI upscale (1440p output minus the 600×600 merged
	// RoI) takes ≈1.4 ms on the GPU.
	p := TabS8()
	outPx := 2560*1440 - 600*600
	if got := ms(p.GPUBilinearLatency(outPx)); math.Abs(got-1.4) > 0.15 {
		t.Errorf("GPU bilinear = %.2f ms, want ≈1.4", got)
	}
	if p.GPUBilinearLatency(0) != 0 {
		t.Error("zero pixels should cost 0")
	}
}

func TestDecoderGap(t *testing.T) {
	// The software decoder must be much slower than the hardware decoder —
	// the energy argument of Fig. 12 rests on this.
	for _, p := range Profiles() {
		px := 1280 * 720
		hw := p.HWDecodeLatency(px)
		sw := p.SWDecodeLatency(px)
		if ratio := float64(sw) / float64(hw); ratio < 5 {
			t.Errorf("%s: SW/HW decode ratio %.1f, want ≥ 5", p.Name, ratio)
		}
		// HW decode of 720p must fit comfortably in a 60 FPS budget.
		if hw > 5*time.Millisecond {
			t.Errorf("%s: HW decode %.2f ms too slow", p.Name, ms(hw))
		}
	}
}

func TestNEMONonRefUpscaleCost(t *testing.T) {
	// NEMO's CPU MV/residual upscale at 1440p lands near 25–26 ms,
	// giving the paper's ≈1.6× non-reference speedup over our ≈16.3 ms.
	for _, p := range Profiles() {
		nemo := ms(p.CPUUpscaleLatency(2560 * 1440))
		ours := ms(p.SRLatency(300*300) + p.MergeLatency())
		ratio := nemo / ours
		if ratio < 1.4 || ratio > 1.8 {
			t.Errorf("%s: non-ref speedup %.2f, want ≈1.6", p.Name, ratio)
		}
	}
}

func TestReferenceFrameSpeedup(t *testing.T) {
	// Fig. 10a: ours (RoI on NPU ∥ rest on GPU) vs SOTA (full frame on
	// NPU) reference-frame upscale speedup ≈13× (S8) / ≈14× (Pixel).
	for _, c := range []struct {
		p    *Profile
		want float64
	}{{TabS8(), 13}, {Pixel7Pro(), 14}} {
		p := c.p
		sota := p.SRLatency(1280 * 720)
		roi := p.SRLatency(300 * 300)
		gpu := p.GPUBilinearLatency(2560*1440 - 600*600)
		ours := max(roi, gpu) + p.MergeLatency()
		got := float64(sota) / float64(ours)
		if math.Abs(got-c.want) > 1.2 {
			t.Errorf("%s: reference speedup %.1f×, want ≈%.0f×", p.Name, got, c.want)
		}
		// And ours must be real-time.
		if ours > RealTimeDeadline {
			t.Errorf("%s: our reference path %.2f ms misses 16.66 ms", p.Name, ms(ours))
		}
	}
}

func TestMaxRoIWindow(t *testing.T) {
	// §IV-B1: the S8's maximum real-time RoI window is ≈300 px square.
	p := TabS8()
	side := p.MaxRoIWindow(RealTimeDeadline)
	if side < 290 || side > 310 {
		t.Errorf("S8 max RoI window = %d, want ≈300", side)
	}
	// Inverse consistency: the returned window must fit the deadline, and
	// a slightly larger one must not.
	if p.SRLatency(side*side) > RealTimeDeadline {
		t.Error("returned window violates the deadline")
	}
	if p.SRLatency((side+8)*(side+8)) <= RealTimeDeadline {
		t.Error("window is not maximal")
	}
	if p.MaxRoIPixels(0) != 0 {
		t.Error("zero deadline should allow zero pixels")
	}
	// Alignment.
	if side%4 != 0 {
		t.Errorf("window %d not 4-aligned", side)
	}
}

func TestMinRoIWindow(t *testing.T) {
	// §IV-B1 worked example: S8 at 274 PPI, 1.25 in foveal diameter, ×2
	// scale → ≈172 px on the low-resolution frame.
	p := TabS8()
	if got := p.MinRoIWindow(2); got < 165 || got > 175 {
		t.Errorf("S8 min RoI = %d, want ≈172", got)
	}
	// The Pixel's much denser display needs a larger foveal window.
	if TabS8().MinRoIWindow(2) >= Pixel7Pro().MinRoIWindow(2) {
		t.Error("higher PPI should need more pixels")
	}
	if p.MinRoIWindow(0) != 0 {
		t.Error("zero scale should return 0")
	}
	// Max window must exceed min window on both devices (the design's
	// feasibility condition).
	for _, pr := range Profiles() {
		if pr.MaxRoIWindow(RealTimeDeadline) < pr.MinRoIWindow(2) {
			t.Errorf("%s: max RoI below foveal minimum", pr.Name)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, n := range []string{"s8", "tabs8", "tab-s8"} {
		p, err := ProfileByName(n)
		if err != nil || p.Name != TabS8().Name {
			t.Errorf("ProfileByName(%q) = %v, %v", n, p, err)
		}
	}
	if _, err := ProfileByName("iphone"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestEnergyMeter(t *testing.T) {
	p := Pixel7Pro()
	m := NewEnergyMeter(p)
	m.AddActive(RailNPU, time.Second)
	if got := m.Joules(RailNPU); math.Abs(got-p.Power[RailNPU]) > 1e-9 {
		t.Errorf("1s NPU = %f J, want %f", got, p.Power[RailNPU])
	}
	m.AddActive(RailCPU, 500*time.Millisecond)
	wantTotal := p.Power[RailNPU] + p.Power[RailCPU]/2
	if math.Abs(m.Total()-wantTotal) > 1e-9 {
		t.Errorf("total = %f, want %f", m.Total(), wantTotal)
	}
	// Negative and out-of-range charges are ignored.
	m.AddActive(RailGPU, -time.Second)
	m.AddActive(Rail(99), time.Second)
	if math.Abs(m.Total()-wantTotal) > 1e-9 {
		t.Error("invalid charges should be ignored")
	}
	m.AddNetworkBytes(2_000_000)
	if got := m.Joules(RailNetwork); math.Abs(got-2*p.NetworkJPerMB) > 1e-9 {
		t.Errorf("network = %f J", got)
	}
	b := m.Breakdown()
	sum := 0.0
	for _, v := range b {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("breakdown sums to %f", sum)
	}
}

func TestEnergyMeterEmptyBreakdown(t *testing.T) {
	m := NewEnergyMeter(TabS8())
	for _, v := range m.Breakdown() {
		if v != 0 {
			t.Fatal("empty meter breakdown should be zero")
		}
	}
}

func TestEyeTrackingPower(t *testing.T) {
	// §III-A: the Pixel 7 Pro draws an extra 2.8 W for camera-based
	// eye tracking — the cost our depth-guided approach avoids.
	if p := Pixel7Pro().Power[RailCamera]; p != 2.8 {
		t.Errorf("camera rail = %f W, want 2.8", p)
	}
}

func TestServerUtilization(t *testing.T) {
	// §IV-B2: 79% at 1440p, 52% at 720p.
	s := DefaultServer()
	if u := s.Utilization(2560 * 1440); math.Abs(u-0.79) > 0.01 {
		t.Errorf("1440p utilisation = %.3f, want 0.79", u)
	}
	if u := s.Utilization(1280 * 720); math.Abs(u-0.52) > 0.01 {
		t.Errorf("720p utilisation = %.3f, want 0.52", u)
	}
	if s.Utilization(1e9) != 1 {
		t.Error("utilisation must clamp at 1")
	}
}

func TestServerLatencies(t *testing.T) {
	s := DefaultServer()
	// Rendering 720p must be much cheaper than 1440p, and both plus encode
	// must fit a 60 FPS server budget at 720p.
	r720 := s.RenderLatency(1280 * 720)
	r1440 := s.RenderLatency(2560 * 1440)
	if r1440 <= r720 {
		t.Error("render latency must grow with resolution")
	}
	// Render and encode run as pipelined stages; each must individually
	// sustain 60 FPS at 720p.
	if r720 > RealTimeDeadline {
		t.Errorf("server 720p render %.2f ms misses the frame budget", ms(r720))
	}
	if e := s.EncodeLatency(1280 * 720); e > RealTimeDeadline {
		t.Errorf("server 720p encode %.2f ms misses the frame budget", ms(e))
	}
	// RoI detection must fit in the 720p rendering headroom (the paper's
	// zero-overhead claim rests on the utilisation drop 79% → 52%).
	if s.RoIDetectLatency(1280*720) > RealTimeDeadline-r720 {
		t.Error("RoI detection should hide inside rendering headroom")
	}
}

func TestRailString(t *testing.T) {
	if RailNPU.String() != "npu" || RailCamera.String() != "camera" {
		t.Error("rail names")
	}
	if Rail(99).String() != "Rail(99)" {
		t.Error("unknown rail name")
	}
	if len(Rails()) != int(railCount) {
		t.Error("rails list")
	}
}
