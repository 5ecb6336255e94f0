// Command gssr-server is the cloud-gaming host of the reproduction (the
// Sunshine analogue): it renders a game workload, runs depth-guided RoI
// detection on every frame, encodes it with the block codec and streams
// frame+RoI packets to one client over TCP. A session gets frames at the
// game's own rate (games.FPS, 60 a second) where the host could go faster,
// and as fast as the host can where it could not.
//
// Usage:
//
//	gssr-server [-addr :7007] [-game G3] [-frames 120] [-w 320] [-h 180] [-gop 12] [-metrics :9090] [-flight 128]
//	            [-max-sessions 16] [-max-subscribers 16] [-sub-queue 32]
//	            [-admission] [-admission-slack 0] [-shed] [-shed-streak 8] [-shed-recover 240]
//
// With -metrics, a telemetry endpoint serves /metrics (Prometheus text),
// /metrics.json (JSON snapshot with per-histogram quantiles), /debug/flight
// (the flight-recorder windows of all sessions as Chrome trace-event JSON,
// see -flight) and the standard /debug/pprof profiles.
//
// With -flight N, every session records its last N frame sends — send span,
// RoI, payload size, deadline slack — into a per-session flight recorder;
// fetch /debug/flight and open it in ui.perfetto.dev (or render it with
// `gssr trace`) to postmortem a stall.
//
// Clients (gssr-client) report client-side telemetry on the input path
// every ~60 frames; the server folds each session's latest report
// into /metrics (stream_client_age_p99_us_<remote> and friends, plus
// cumulative drop/deadline-miss counters) and pins it to the in-flight frame
// in that session's flight recorder. Merge a session's server dump with the
// client's `-flight` dump via `gssr trace -merge` for one clock-aligned
// two-process timeline (DESIGN.md §13).
//
// Scale controls (DESIGN.md §12): every session renders through its own
// client of the shared parallel.Scheduler, so concurrent sessions share the
// worker pool by weighted fair queueing instead of fighting over it. With
// -admission (requires -flight), a new connection is refused with a
// protocol-level Busy reject once the live sessions' windowed p99 frame
// latency leaves less than -admission-slack of headroom against the frame
// deadline. With -shed (requires -flight), a session that accumulates
// -shed-streak consecutive deadline misses climbs a quality ladder — RoI
// shrink, then bilinear-only (no RoI/SR), then background scheduler
// priority — and descends one rung after -shed-recover on-budget frames.
//
// Spectating (DESIGN.md §14): a publisher whose Hello names a channel
// (gssr-client -channel <name>) is fanned out 1:many — spectators join with
// `gssr-client -spectate <name>` and get the channel's cached geometry, the
// cached keyframe and the live GOP tail without a second encode.
// -max-subscribers caps spectators per channel; -sub-queue sizes each
// spectator's bounded send queue (a reader that overflows it is dropped to
// the next keyframe, then disconnected if it makes no progress).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/diag"
	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/faultnet"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/render"
	"gamestreamsr/internal/roi"
	"gamestreamsr/internal/stream"
	"gamestreamsr/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":7007", "listen address")
	gameID := flag.String("game", "G3", "workload id (G1..G10)")
	frames := flag.Int("frames", 120, "frames to stream")
	width := flag.Int("w", 320, "stream width")
	height := flag.Int("h", 180, "stream height")
	gop := flag.Int("gop", 12, "keyframe interval")
	qstep := flag.Int("q", 6, "codec quantizer")
	metricsAddr := flag.String("metrics", "", "telemetry listen address (e.g. :9090); empty disables")
	flight := flag.Int("flight", 0, "frames per session in the flight recorder (0 disables /debug/flight)")
	maxSessions := flag.Int("max-sessions", 16, "concurrent session cap (excess connections get a capacity reject)")
	maxSubs := flag.Int("max-subscribers", 16, "spectator cap per publish channel (excess get a capacity reject)")
	subQueue := flag.Int("sub-queue", 32, "per-spectator send-queue depth in frames (overflow drops to keyframe)")
	admission := flag.Bool("admission", false, "refuse new sessions when live p99 slack runs out (needs -flight)")
	admissionSlack := flag.Duration("admission-slack", 0, "minimum p99 headroom against the deadline to admit a session")
	shed := flag.Bool("shed", false, "degrade over-budget sessions along the shed ladder (needs -flight)")
	shedStreak := flag.Int("shed-streak", 8, "consecutive deadline misses per shed-ladder escalation")
	shedRecover := flag.Int("shed-recover", 240, "consecutive on-budget frames per shed-ladder recovery")
	idleTimeout := flag.Duration("idle-timeout", 0, "reap connections silent (no heartbeat) this long (0 = default, negative disables)")
	parkGrace := flag.Duration("park-grace", 0, "keep a dropped publisher's channel parked this long awaiting a resume reclaim (0 = default, negative disables)")
	fault := flag.String("fault", "", "chaos script applied to every accepted connection, e.g. \"latency=5ms,jitter=2ms,reset@96KB\" (see internal/faultnet)")
	deadline := flag.Duration("deadline", 0, "per-frame budget the flight recorders account against (0 = 60 FPS frame time)")
	diagDir := flag.String("diag", "", "directory for SLO-triggered diagnostic capture bundles; also arms the continuous profile ring and /debug/diag")
	verbose := flag.Bool("v", false, "log at debug level")
	flag.Parse()

	if *verbose {
		logx.Default().SetLevel(logx.LevelDebug)
	}
	cfg := serverConfig{
		addr: *addr, gameID: *gameID, frames: *frames, width: *width, height: *height,
		gop: *gop, qstep: *qstep, metricsAddr: *metricsAddr, flight: *flight,
		maxSessions: *maxSessions, maxSubs: *maxSubs, subQueue: *subQueue,
		idleTimeout: *idleTimeout, parkGrace: *parkGrace, fault: *fault,
		deadline: *deadline, diagDir: *diagDir,
	}
	if *admission {
		cfg.admission = &stream.AdmissionPolicy{MinSlack: *admissionSlack}
	}
	if *shed {
		cfg.shed = &stream.ShedPolicy{EscalateStreak: *shedStreak, RecoverFrames: *shedRecover}
	}
	if err := run(cfg); err != nil {
		logx.Error("gssr-server exiting", "err", err)
		os.Exit(1)
	}
}

// serverConfig carries the parsed flags into run.
type serverConfig struct {
	addr, gameID                    string
	frames, width, height           int
	gop, qstep, flight, maxSessions int
	maxSubs, subQueue               int
	metricsAddr                     string
	admission                       *stream.AdmissionPolicy
	shed                            *stream.ShedPolicy
	idleTimeout, parkGrace          time.Duration
	fault                           string
	deadline                        time.Duration
	diagDir                         string
}

func run(cfg serverConfig) error {
	addr, gameID := cfg.addr, cfg.gameID
	frames, width, height := cfg.frames, cfg.width, cfg.height
	gop, qstep, metricsAddr, flight := cfg.gop, cfg.qstep, cfg.metricsAddr, cfg.flight
	if (cfg.admission != nil || cfg.shed != nil) && flight <= 0 {
		return fmt.Errorf("-admission and -shed need -flight (the per-session latency window is the control signal)")
	}
	g, err := games.ByID(gameID)
	if err != nil {
		return err
	}
	// A configuration no decoder would accept (-q 300, say) must stop the
	// server here, not every client on its first frame.
	codecCfg := codec.Config{Width: width, Height: height, GOPSize: gop, QStep: qstep}
	if _, err := codec.NewEncoder(codecCfg); err != nil {
		return err
	}
	var reg *telemetry.Registry
	if metricsAddr != "" {
		reg = telemetry.NewRegistry()
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer l.Close()
	if cfg.fault != "" {
		// Chaos mode: every accepted connection runs the fault script
		// (events fire on the first connection only, so a scripted reset
		// kills one session and its reconnect gets through).
		script, err := faultnet.ParseScript(cfg.fault)
		if err != nil {
			return err
		}
		l = faultnet.WrapListener(l, script)
		logx.Info("fault injection armed", "script", cfg.fault)
	}
	logx.Info("serving", "game", g, "frames", frames, "width", width, "height", height, "addr", l.Addr())

	// Each client gets its own encoder + RoI detector sized to the RoI
	// window its Hello announced (Fig. 6 step ❶); sessions run
	// concurrently.
	srv := &stream.MultiServer{
		Accept:          stream.Accept{Width: width, Height: height, GOPSize: gop, QStep: qstep},
		MaxFrames:       frames,
		FrameInterval:   time.Second / games.FPS, // frame i is the game at i/FPS seconds
		MaxSessions:     cfg.maxSessions,
		MaxSubscribers:  cfg.maxSubs,
		SubscriberQueue: cfg.subQueue,
		Metrics:         reg,
		FlightFrames:    flight,
		Sched:           parallel.Default(),
		Admission:       cfg.admission,
		Shed:            cfg.shed,
		IdleTimeout:     cfg.idleTimeout,
		ParkGrace:       cfg.parkGrace,
		Deadline:        cfg.deadline,
		OnInput: func(remote string, in stream.InputPacket) {
			logx.Info("input", "session", remote, "seq", in.Seq, "payload", string(in.Payload))
		},
		NewSource: func(h stream.Hello) (stream.FrameSource, error) {
			if h.RoIWindow < 8 || h.RoIWindow > width || h.RoIWindow > height {
				return nil, fmt.Errorf("RoI window %d unusable for a %dx%d stream", h.RoIWindow, width, height)
			}
			// Per-session pool: the encoder ping-pongs its reconstruction
			// frames through it instead of allocating two planes per frame.
			// All sessions report under the same metric names, so hit/miss
			// counters aggregate across sessions at /metrics.
			pool := bufpool.New()
			if reg != nil {
				pool.Instrument(reg, "server")
			}
			src, err := newGameSource(g, codecCfg, h.RoIWindow, pool)
			if err != nil {
				return nil, err
			}
			logx.Info("hello", "device", h.Device, "roi_window", h.RoIWindow, "scale", h.Scale)
			return src, nil
		},
	}
	var d *diag.Diag
	if cfg.diagDir != "" {
		// Always-on diagnostics: the continuous profile ring samples in the
		// background, and the MultiServer's SLO watchdog (miss streaks, shed
		// escalations, admission rejects, reaps) freezes capture bundles
		// into the directory. The process-wide logx ring rides along in
		// every bundle.
		d = diag.New(diag.Config{Metrics: reg, Flight: srv, Log: logx.Default(), Dir: cfg.diagDir})
		d.Start()
		defer d.Close()
		srv.Diag = d
		logx.Info("diagnostics armed", "dir", cfg.diagDir)
	}
	if metricsAddr != "" {
		// The MultiServer itself is the FlightDumper: /debug/flight merges
		// every retained session's window into one Perfetto trace.
		if err := serveMetrics(metricsAddr, reg, srv, d); err != nil {
			return err
		}
	}
	return srv.Serve(l)
}

// serveMetrics starts the telemetry endpoint (/metrics, /metrics.json,
// /debug/flight, /debug/pprof, and — when diagnostics are armed —
// /debug/diag) on addr, fed by reg and the server's per-session flight
// recorders.
func serveMetrics(addr string, reg *telemetry.Registry, flight telemetry.FlightDumper, d *diag.Diag) error {
	ml, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("metrics listener: %w", err)
	}
	diag.RegisterBuildInfo(reg)
	mux := telemetry.Handler(reg, flight)
	if d != nil {
		mux.Handle("/debug/diag", d.Handler())
	}
	logx.Info("telemetry up", "url", fmt.Sprintf("http://%s/metrics", ml.Addr()),
		"endpoints", "/metrics.json /debug/flight /debug/pprof/ /debug/diag")
	go func() {
		if err := http.Serve(ml, mux); err != nil {
			logx.Warn("telemetry server stopped", "err", err)
		}
	}()
	return nil
}

// gameSource renders, detects and encodes frames on demand. Sessions call
// NextFrame sequentially and WriteFrame consumes the payload before the next
// call, so the render targets and the payload buffer persist across frames
// and the session runs with near-zero steady-state allocations.
type gameSource struct {
	game      *games.Workload
	enc       *codec.Encoder
	det       *roi.Detector // full-quality detector
	detShrunk *roi.Detector // shed level 1: half RoI window
	rd        *render.Renderer
	w, h      int
	shed      atomic.Int32
	out       render.Output
	payload   []byte
}

// newGameSource builds one session's source: an encoder for the stream's
// codec configuration drawing on pool, and RoI detectors for the window the
// client announced.
func newGameSource(g *games.Workload, cc codec.Config, roiWindow int, pool *bufpool.Pool) (*gameSource, error) {
	det, err := roi.New(roi.Config{WindowW: roiWindow, WindowH: roiWindow})
	if err != nil {
		return nil, err
	}
	enc, err := codec.NewEncoder(cc)
	if err != nil {
		return nil, err
	}
	enc.SetPool(pool)
	// The shrunken-window detector backs shed level 1: half the RoI side
	// keeps SR on the most salient region at a quarter of the NPU-path
	// work. Falls back to the full window when the half window would be
	// unusable.
	detShrunk := det
	if half := roiWindow / 2; half >= 8 {
		if d, err := roi.New(roi.Config{WindowW: half, WindowH: half}); err == nil {
			detShrunk = d
		}
	}
	return &gameSource{game: g, enc: enc, det: det, detShrunk: detShrunk, rd: &render.Renderer{}, w: cc.Width, h: cc.Height}, nil
}

// SetSched (stream.SchedAware) points the session's kernels — render, RoI
// detection, encode — at its scheduler client, so concurrent sessions share
// the worker pool fairly, a shed-demoted session's work yields to on-budget
// ones, and stolen chunks carry the session's sched_client= pprof label.
func (s *gameSource) SetSched(c *parallel.Client) {
	s.rd.Sched = c
	s.enc.SetSched(c)
}

// SetShedLevel (stream.Shedder) applies the server's shed ladder: level 1
// shrinks the RoI window, level 2 drops RoI detection entirely (the client
// falls back to its bilinear path on a zero RoI). Level 3's priority
// demotion is handled by the server on the scheduler client.
func (s *gameSource) SetShedLevel(level int) { s.shed.Store(int32(level)) }

func (s *gameSource) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	s.game.RenderInto(&s.out, s.rd, i, s.w, s.h)
	// Detection reads the depth map and encoding the colour plane, so the
	// two could overlap; they run one after the other because both already
	// spread over the session's workers (DESIGN.md §18 has the ablation).
	var rect frame.Rect
	det := s.det
	switch level := int(s.shed.Load()); {
	case level >= stream.ShedBilinearOnly:
		// No RoI: the frame header carries a zero rect and the client
		// upscales bilinearly — the paper's baseline path.
		det = nil
	case level >= stream.ShedRoIShrink:
		det = s.detShrunk
	}
	if det != nil {
		var err error
		if rect, err = det.DetectOn(s.rd.Sched, s.out.Depth); err != nil {
			return nil, false, frame.Rect{}, err
		}
	}
	data, ftype, err := s.enc.EncodeInto(s.payload[:0], s.out.Color)
	if err != nil {
		return nil, false, frame.Rect{}, err
	}
	s.payload = data
	return data, ftype == codec.Intra, rect, nil
}
