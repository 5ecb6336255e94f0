package roi

import (
	"fmt"

	"gamestreamsr/internal/frame"
)

// TrackConfig controls temporal RoI stabilisation. The paper sizes and
// places the RoI per frame independently; in deployment that makes the
// SR/bilinear boundary flicker whenever two regions have near-equal
// importance, which is visually worse than a slightly stale RoI. Tracking
// adds hysteresis (the incumbent keeps the RoI unless a challenger is
// clearly better) and a per-frame motion clamp (the window glides instead
// of teleporting).
type TrackConfig struct {
	// Hysteresis is the relative importance advantage a new position needs
	// to displace the previous one (default 0.10 = 10%).
	Hysteresis float64
	// MaxStep bounds the per-frame movement along each axis in pixels
	// (default 0 = unbounded).
	MaxStep int
}

func (c TrackConfig) withDefaults() TrackConfig {
	if c.Hysteresis <= 0 {
		c.Hysteresis = 0.10
	}
	if c.MaxStep < 0 {
		c.MaxStep = 0
	}
	return c
}

// DetectTracked runs Detect and stabilises the result against the previous
// frame's RoI. Pass an empty prev (zero Rect) on the first frame.
func (d *Detector) DetectTracked(depth *frame.DepthMap, prev frame.Rect, tc TrackConfig) (frame.Rect, error) {
	tc = tc.withDefaults()
	rect, dbg, err := d.detectReference(depth, true)
	if err != nil {
		return frame.Rect{}, err
	}
	if prev.Empty() || prev.W != rect.W || prev.H != rect.H || !prev.In(depth.W, depth.H) {
		return rect, nil
	}
	// Compare importance on the weighted map, not the layered search map:
	// layer selection is winner-take-all, so a marginally-losing region
	// scores zero there and hysteresis could never hold it.
	newSum := planeSum(dbg.Weighted, dbg.W, rect)
	prevSum := planeSum(dbg.Weighted, dbg.W, prev)
	target := rect
	if newSum <= prevSum*(1+tc.Hysteresis) {
		// The challenger is not clearly better: the incumbent stays.
		target = prev
	}
	if tc.MaxStep > 0 {
		target.X = stepToward(prev.X, target.X, tc.MaxStep)
		target.Y = stepToward(prev.Y, target.Y, tc.MaxStep)
	}
	return target.Clamp(depth.W, depth.H), nil
}

// Tracker bundles a detector with its temporal state for streaming use.
type Tracker struct {
	det  *Detector
	tc   TrackConfig
	prev frame.Rect
}

// NewTracker builds a stabilised detector.
func NewTracker(det *Detector, tc TrackConfig) (*Tracker, error) {
	if det == nil {
		return nil, fmt.Errorf("roi: tracker needs a detector")
	}
	return &Tracker{det: det, tc: tc.withDefaults()}, nil
}

// Detect returns the stabilised RoI for the next frame.
func (t *Tracker) Detect(depth *frame.DepthMap) (frame.Rect, error) {
	r, err := t.det.DetectTracked(depth, t.prev, t.tc)
	if err != nil {
		return frame.Rect{}, err
	}
	t.prev = r
	return r, nil
}

// Reset clears the temporal state (e.g. on a scene cut).
func (t *Tracker) Reset() { t.prev = frame.Rect{} }

func planeSum(p []float64, stride int, r frame.Rect) float64 {
	sum := 0.0
	for y := r.Y; y < r.Y+r.H; y++ {
		row := y * stride
		for x := r.X; x < r.X+r.W; x++ {
			sum += p[row+x]
		}
	}
	return sum
}

func stepToward(from, to, maxStep int) int {
	d := to - from
	if d > maxStep {
		d = maxStep
	} else if d < -maxStep {
		d = -maxStep
	}
	return from + d
}
