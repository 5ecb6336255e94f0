package device

import "time"

// WindowController adapts the RoI window between the §IV-B1 foveal minimum
// and the capability-probed maximum at runtime. The paper sizes the window
// once at session start (Fig. 6 step ❶); on a real handset sustained NPU
// load triggers thermal throttling and the static window starts missing the
// deadline. The controller closes that loop: multiplicative decrease on a
// deadline miss, cautious additive increase while there is headroom — the
// AIMD shape used by every latency governor because it converges and does
// not oscillate.
type WindowController struct {
	// Min and Max bound the window side in LR pixels (foveal minimum and
	// probed maximum).
	Min, Max int
	// Deadline is the per-frame budget (default RealTimeDeadline).
	Deadline time.Duration
	// Headroom is the utilisation target as a fraction of the deadline
	// (default 0.97): increase only while below it.
	Headroom float64
	// DecreaseFactor shrinks the window area on a miss (default 0.85).
	DecreaseFactor float64
	// IncreaseStep grows the window side per in-budget frame (default 4 px).
	IncreaseStep int

	side int
}

// NewWindowController builds a controller starting at the maximum window.
func NewWindowController(minSide, maxSide int) *WindowController {
	if minSide < 8 {
		minSide = 8
	}
	if maxSide < minSide {
		maxSide = minSide
	}
	return &WindowController{
		Min:            minSide &^ 3,
		Max:            maxSide &^ 3,
		Deadline:       RealTimeDeadline,
		Headroom:       0.97,
		DecreaseFactor: 0.85,
		IncreaseStep:   4,
		side:           maxSide &^ 3,
	}
}

// Side returns the current window side.
func (c *WindowController) Side() int { return c.side }

// Observe feeds the measured upscale-stage latency of the last frame and
// returns the window side to use for the next frame.
func (c *WindowController) Observe(upscale time.Duration) int {
	deadline := c.Deadline
	if deadline <= 0 {
		deadline = RealTimeDeadline
	}
	switch {
	case upscale > deadline:
		// Miss: shrink the window area multiplicatively.
		area := float64(c.side) * float64(c.side) * c.DecreaseFactor
		c.side = intSqrt(area)
	case float64(upscale) < c.Headroom*float64(deadline):
		c.side += c.IncreaseStep
	}
	c.side &^= 3
	if c.side < c.Min {
		c.side = c.Min
	}
	if c.side > c.Max {
		c.side = c.Max
	}
	return c.side
}

func intSqrt(a float64) int {
	if a <= 0 {
		return 0
	}
	// Newton iteration is overkill; a few steps from a good seed suffice.
	x := a / 2
	for i := 0; i < 20; i++ {
		x = (x + a/x) / 2
	}
	return int(x)
}
