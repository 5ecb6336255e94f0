package pipeline

import (
	"fmt"
	"sync/atomic"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/geom"
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/render"
	"gamestreamsr/internal/roi"
	"gamestreamsr/internal/stream"
)

// Source is the server half of the frame loop, Fig. 6's render →
// depth-guided RoI → encode, and the one place that composes it: the
// engine's server stage and every gssr-server session run it. Frame i is
// the game at script frame start + i·stride. The render target persists
// across frames and the encoder's reconstructions cycle through a pool, so
// a session runs with near-zero steady-state allocations. Frames must be
// asked for one at a time, in order.
type Source struct {
	game          *games.Workload
	start, stride int
	w, h          int
	rd            *render.Renderer
	enc           *codec.Encoder
	// det is the RoI stage; nil means there is none (NEMO) and every frame
	// carries the zero rectangle. tracker, when set, stabilises det's
	// rectangles over time. detShrunk backs shed level 1.
	det, detShrunk *roi.Detector
	tracker        *roi.Tracker
	shed           atomic.Int32

	out render.Output
	// scene and cam are what the last frame was rendered from: the engine's
	// measure stage renders the ground truth from them.
	scene *render.Scene
	cam   geom.Camera
	// payload is NextFrame's bitstream buffer: the session writes a frame
	// out before it asks for the next, so one buffer serves them all.
	payload []byte
}

var (
	_ stream.FrameSource = (*Source)(nil)
	_ stream.SchedAware  = (*Source)(nil)
	_ stream.Shedder     = (*Source)(nil)
)

// NewSource builds one live session's source over game g: an encoder for
// the stream's codec configuration drawing on pool, and RoI detectors for
// the roiWindow-pixel square the client announced. The window arrives from
// the network, so one outside [8, min(width, height)] is an error — the
// server turns it into a typed reject — and not a panic later.
func NewSource(g *games.Workload, cc codec.Config, roiWindow int, pool *bufpool.Pool) (*Source, error) {
	if roiWindow < 8 || roiWindow > min(cc.Width, cc.Height) {
		return nil, fmt.Errorf("RoI window %d unusable for a %dx%d stream", roiWindow, cc.Width, cc.Height)
	}
	det, err := roi.New(roi.Config{WindowW: roiWindow, WindowH: roiWindow})
	if err != nil {
		return nil, err
	}
	s, err := newSource(g, cc, det, pool)
	if err != nil {
		return nil, err
	}
	// Half the RoI side keeps SR on the most salient region at a quarter of
	// the NPU-path work; below 8 px the full window stays.
	if half := roiWindow / 2; half >= 8 {
		if s.detShrunk, err = roi.New(roi.Config{WindowW: half, WindowH: half}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newSource builds a source rendering g's frames 0, 1, 2, … at cc's
// geometry with its own renderer, detecting with det (nil: no RoI stage)
// and encoding through pool.
func newSource(g *games.Workload, cc codec.Config, det *roi.Detector, pool *bufpool.Pool) (*Source, error) {
	enc, err := codec.NewEncoder(cc)
	if err != nil {
		return nil, err
	}
	enc.SetPool(pool)
	return &Source{
		game: g, stride: 1, w: cc.Width, h: cc.Height,
		rd: &render.Renderer{}, enc: enc, det: det, detShrunk: det,
	}, nil
}

// SetSched (stream.SchedAware) points the source's row-parallel kernels —
// render and encode — at a session's scheduler client, so concurrent
// sessions share the worker pool fairly, a shed-demoted session's work
// yields to on-budget ones, and stolen chunks carry the session's
// sched_client= pprof label. RoI detection is serial and runs on the
// session's own goroutine.
func (s *Source) SetSched(c *parallel.Client) {
	s.rd.Sched = c
	s.enc.SetSched(c)
}

// SetShedLevel (stream.Shedder) applies the server's shed ladder: level 1
// shrinks the RoI window, level 2 drops RoI detection entirely (the client
// falls back to its bilinear path on a zero RoI). Level 3's priority
// demotion is handled by the server on the scheduler client.
func (s *Source) SetShedLevel(level int) { s.shed.Store(int32(level)) }

// NextFrame (stream.FrameSource) renders, detects and encodes frame i into
// the source's payload buffer, valid until the next call.
func (s *Source) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	data, ftype, rect, err := s.frame(s.payload[:0], i)
	if err != nil {
		return nil, false, frame.Rect{}, err
	}
	s.payload = data
	return data, ftype == codec.Intra, rect, nil
}

// frame renders frame i, detects its RoI and appends its bitstream to dst.
func (s *Source) frame(dst []byte, i int) ([]byte, codec.FrameType, frame.Rect, error) {
	s.scene, s.cam = s.game.Frame(s.start + i*s.stride)
	s.rd.RenderInto(&s.out, s.scene, s.cam, s.w, s.h)
	// Detection reads the depth map and encoding the colour plane, so the
	// two could overlap; they run one after the other (DESIGN.md §18 has the
	// ablation).
	rect, err := s.detect()
	if err != nil {
		return nil, 0, frame.Rect{}, fmt.Errorf("frame %d RoI: %w", i, err)
	}
	data, ftype, err := s.enc.EncodeInto(dst, s.out.Color)
	if err != nil {
		return nil, 0, frame.Rect{}, fmt.Errorf("frame %d encode: %w", i, err)
	}
	return data, ftype, rect, nil
}

// detect runs the RoI stage on the rendered depth map at the shed ladder's
// current rung.
func (s *Source) detect() (frame.Rect, error) {
	det := s.det
	switch level := int(s.shed.Load()); {
	case level >= stream.ShedBilinearOnly:
		// No RoI: the frame header carries a zero rect and the client
		// upscales bilinearly — the paper's baseline path.
		return frame.Rect{}, nil
	case level >= stream.ShedRoIShrink:
		det = s.detShrunk
	}
	switch {
	case det == nil:
		return frame.Rect{}, nil
	case det == s.det && s.tracker != nil:
		return s.tracker.Detect(s.out.Depth)
	}
	return det.Detect(s.out.Depth)
}
