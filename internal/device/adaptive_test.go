package device

import (
	"testing"
	"time"
)

func TestWindowControllerConvergesUnderThrottle(t *testing.T) {
	// Simulate an NPU that throttles to 70% of its probed speed: the
	// static 300-px window now misses the deadline; the controller must
	// settle at a window that fits again.
	p := TabS8()
	c := NewWindowController(p.MinRoIWindow(2), p.MaxRoIWindow(RealTimeDeadline))
	throttle := 1.0 / 0.7
	var side int
	for i := 0; i < 200; i++ {
		side = c.Side()
		lat := time.Duration(float64(p.SRLatency(side*side)) * throttle)
		c.Observe(lat)
	}
	lat := time.Duration(float64(p.SRLatency(side*side)) * throttle)
	if lat > RealTimeDeadline {
		t.Errorf("converged window %d still misses: %v", side, lat)
	}
	if side <= c.Min {
		t.Errorf("controller collapsed to the minimum (%d)", side)
	}
	// And it should hover near the largest fitting window, not far below.
	maxFitting := 0
	for s := c.Min; s <= c.Max; s += 4 {
		if time.Duration(float64(p.SRLatency(s*s))*throttle) <= RealTimeDeadline {
			maxFitting = s
		}
	}
	if side < maxFitting-24 {
		t.Errorf("converged at %d, max fitting is %d", side, maxFitting)
	}
}

func TestWindowControllerRecovers(t *testing.T) {
	// After throttling ends, the controller must climb back to the max.
	p := Pixel7Pro()
	c := NewWindowController(p.MinRoIWindow(2), p.MaxRoIWindow(RealTimeDeadline))
	for i := 0; i < 50; i++ {
		c.Observe(2 * RealTimeDeadline) // heavy throttle
	}
	low := c.Side()
	if low >= c.Max {
		t.Fatal("controller did not shrink")
	}
	for i := 0; i < 200; i++ {
		c.Observe(p.SRLatency(c.Side() * c.Side()))
	}
	if c.Side() < c.Max-8 {
		t.Errorf("controller did not recover: %d (max %d)", c.Side(), c.Max)
	}
}

func TestWindowControllerBoundsAndAlignment(t *testing.T) {
	c := NewWindowController(60, 120)
	for i := 0; i < 500; i++ {
		var s int
		if i%2 == 0 {
			s = c.Observe(50 * time.Millisecond)
		} else {
			s = c.Observe(time.Millisecond)
		}
		if s < c.Min || s > c.Max {
			t.Fatalf("window %d out of [%d, %d]", s, c.Min, c.Max)
		}
		if s%4 != 0 {
			t.Fatalf("window %d not 4-aligned", s)
		}
	}
	// Degenerate construction.
	d := NewWindowController(0, 0)
	if d.Side() < 8 {
		t.Errorf("degenerate controller side = %d", d.Side())
	}
}

func TestIntSqrt(t *testing.T) {
	for _, c := range []struct {
		in   float64
		want int
	}{{0, 0}, {-4, 0}, {1, 1}, {4, 2}, {90000, 300}, {250000, 500}} {
		if got := intSqrt(c.in); got != c.want {
			t.Errorf("intSqrt(%f) = %d, want %d", c.in, got, c.want)
		}
	}
}
