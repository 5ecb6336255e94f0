// Command gssr-server is the cloud-gaming host of the reproduction (the
// Sunshine analogue): it renders a game workload, runs depth-guided RoI
// detection on every frame, encodes it with the block codec and streams
// frame+RoI packets to one client over TCP. A session gets frames at the
// game's own rate (games.FPS, 60 a second) where the host could go faster,
// and as fast as the host can where it could not.
//
// Usage:
//
//	gssr-server [-addr :7007] [-game G3] [-frames 120] [-w 320] [-h 180] [-gop 12] [-metrics :9090]
//	            [-max-sessions 16] [-deadline 16.666ms] [-diag DIR]
//	            [-admission] [-admission-slack 0] [-shed] [-shed-streak 8] [-shed-recover 240]
//
// Every session records its last 128 frame sends — send span, RoI, payload
// size, deadline slack — into its own flight recorder, and checks each
// frame against the -deadline budget there. With -metrics, a telemetry
// endpoint serves /metrics (Prometheus text), /metrics.json (JSON snapshot
// with per-histogram quantiles), /debug/flight (the flight-recorder windows
// of all sessions as Chrome trace-event JSON; open it in ui.perfetto.dev or
// render it with `gssr trace` to postmortem a stall) and the standard
// /debug/pprof profiles.
//
// Clients (gssr-client) report client-side telemetry on the input path
// every ~60 frames; the server folds each session's latest report
// into /metrics (stream_client_age_p99_us_<remote> and friends, plus
// cumulative drop/deadline-miss counters) and pins it to the in-flight frame
// in that session's flight recorder. Merge a session's server dump with the
// client's `-flight` dump via `gssr trace -merge` for one clock-aligned
// two-process timeline (DESIGN.md §13).
//
// Scale controls (DESIGN.md §12) read the session recorders: every session
// renders through its own client of the shared parallel.Scheduler, so
// concurrent sessions share the worker pool by fair queueing instead of
// fighting over it. With -admission, a new connection is refused with a
// protocol-level Busy reject once the live sessions' windowed p99 frame
// latency leaves less than -admission-slack of headroom against the frame
// deadline. With -shed, a session that accumulates -shed-streak
// consecutive deadline misses climbs a quality ladder — RoI shrink, then
// bilinear-only (no RoI/SR), then background scheduler priority — and
// descends one rung after -shed-recover on-budget frames. With -diag DIR,
// a sustained miss streak, a shed escalation, an admission reject or a
// reaped session captures a bundle into DIR, with a CPU profile of the
// second after the trigger (DESIGN.md §16).
//
// SIGINT or SIGTERM shuts the server down: it stops accepting, ends every
// session with a Bye behind its frame in flight, waits up to two seconds
// for the clients to hang up and closes what is left, writes a diag
// capture still in flight and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/diag"
	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/faultnet"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/stream"
	"gamestreamsr/internal/telemetry"
)

func main() {
	slog.SetDefault(slog.New(logx.Default()))
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // the flag set has printed the error and the usage
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		slog.Error("gssr-server exiting", "err", err)
		os.Exit(1)
	}
}

// shutdownBound is how long a shutdown waits for the sessions to drain.
const shutdownBound = 2 * time.Second

// parseFlags reads the command line into a serverConfig. A frame count the
// session loop cannot work with is refused here: a negative -frames would
// stream no frame to any client and still exit 0.
func parseFlags(args []string) (serverConfig, error) {
	var cfg serverConfig
	fs := flag.NewFlagSet("gssr-server", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", ":7007", "listen address")
	fs.StringVar(&cfg.gameID, "game", "G3", "workload id (G1..G10)")
	fs.IntVar(&cfg.frames, "frames", 120, "frames to stream per session, ≥ 0 (0 = until the source ends)")
	fs.IntVar(&cfg.width, "w", 320, "stream width")
	fs.IntVar(&cfg.height, "h", 180, "stream height")
	fs.IntVar(&cfg.gop, "gop", 12, "keyframe interval")
	fs.IntVar(&cfg.qstep, "q", 6, "codec quantizer")
	fs.StringVar(&cfg.metricsAddr, "metrics", "", "telemetry listen address (e.g. :9090); empty disables")
	fs.IntVar(&cfg.maxSessions, "max-sessions", 16, "concurrent session cap (excess connections get a capacity reject)")
	admission := fs.Bool("admission", false, "refuse new sessions when live p99 slack runs out")
	admissionSlack := fs.Duration("admission-slack", 0, "minimum p99 headroom against the deadline to admit a session")
	shed := fs.Bool("shed", false, "degrade over-budget sessions along the shed ladder")
	shedStreak := fs.Int("shed-streak", 8, "consecutive deadline misses per shed-ladder escalation")
	shedRecover := fs.Int("shed-recover", 240, "consecutive on-budget frames per shed-ladder recovery")
	fs.DurationVar(&cfg.idleTimeout, "idle-timeout", 0, "reap connections silent (no heartbeat) this long (0 = default, negative disables)")
	fs.StringVar(&cfg.fault, "fault", "", "chaos script applied to every accepted connection, e.g. \"latency=5ms,jitter=2ms,reset@96KB\" (see internal/faultnet)")
	fs.DurationVar(&cfg.deadline, "deadline", 0, "per-frame budget the flight recorders account against (0 = 60 FPS frame time)")
	fs.StringVar(&cfg.diagDir, "diag", "", "directory for SLO-triggered diagnostic capture bundles, each with the CPU profile of the second after its trigger; also arms /debug/diag")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if *admission {
		cfg.admission = &stream.AdmissionPolicy{MinSlack: *admissionSlack}
	}
	if *shed {
		cfg.shed = &stream.ShedPolicy{EscalateStreak: *shedStreak, RecoverFrames: *shedRecover}
	}
	if cfg.frames < 0 {
		err := fmt.Errorf("-frames must not be negative, got %d", cfg.frames)
		fmt.Fprintln(fs.Output(), err)
		return cfg, err
	}
	return cfg, nil
}

// serverConfig carries the parsed flags into run.
type serverConfig struct {
	addr, gameID            string
	frames, width, height   int
	gop, qstep, maxSessions int
	metricsAddr             string
	admission               *stream.AdmissionPolicy
	shed                    *stream.ShedPolicy
	idleTimeout             time.Duration
	fault                   string
	deadline                time.Duration
	diagDir                 string
}

// run serves until ctx ends, then shuts the server down within
// shutdownBound.
func run(ctx context.Context, cfg serverConfig) error {
	addr, gameID := cfg.addr, cfg.gameID
	frames, width, height := cfg.frames, cfg.width, cfg.height
	gop, qstep, metricsAddr := cfg.gop, cfg.qstep, cfg.metricsAddr
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
		slog.Info("fault injection armed", "script", cfg.fault)
	}
	slog.Info("serving", "game", g, "frames", frames, "width", width, "height", height, "addr", l.Addr())

	// Each client gets its own encoder + RoI detector sized to the RoI
	// window its Hello announced (Fig. 6 step ❶); sessions run
	// concurrently.
	srv := &stream.MultiServer{
		Accept:        stream.Accept{Width: width, Height: height, GOPSize: gop, QStep: qstep},
		MaxFrames:     frames,
		FrameInterval: time.Second / games.FPS, // frame i is the game at i/FPS seconds
		MaxSessions:   cfg.maxSessions,
		Metrics:       reg,
		Sched:         parallel.Default(),
		Admission:     cfg.admission,
		Shed:          cfg.shed,
		IdleTimeout:   cfg.idleTimeout,
		Deadline:      cfg.deadline,
		OnInput: func(remote string, in stream.InputPacket) {
			slog.Info("input", "session", remote, "seq", in.Seq, "payload", string(in.Payload))
		},
		NewSource: func(h stream.Hello) (stream.FrameSource, error) {
			// Per-session pool: the encoder ping-pongs its reconstruction
			// frames through it instead of allocating two planes per frame.
			// All sessions report under the same metric names, so hit/miss
			// counters aggregate across sessions at /metrics.
			pool := bufpool.New()
			if reg != nil {
				pool.Instrument(reg, "server")
			}
			src, err := pipeline.NewSource(g, codecCfg, h.RoIWindow, pool)
			if err != nil {
				return nil, err
			}
			slog.Info("hello", "device", h.Device, "roi_window", h.RoIWindow, "scale", h.Scale)
			return src, nil
		},
	}
	var d *diag.Diag
	if cfg.diagDir != "" {
		// The MultiServer's SLO watchdog (miss streaks, shed escalations,
		// admission rejects, reaps) captures bundles into the directory,
		// each with the CPU profile of the second after its trigger. The
		// process-wide log ring rides along in every bundle. The deferred
		// Close writes a capture still in flight at shutdown.
		d = diag.New(diag.Config{Metrics: reg, Flight: srv, Log: logx.Default(), Dir: cfg.diagDir})
		defer d.Close()
		srv.Diag = d
		slog.Info("diagnostics armed", "dir", cfg.diagDir)
	}
	if metricsAddr != "" {
		// The MultiServer itself is the FlightDumper: /debug/flight merges
		// every retained session's window into one Perfetto trace.
		if err := diag.ServeMetrics(metricsAddr, reg, srv, d); err != nil {
			return err
		}
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	slog.Info("shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), shutdownBound)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-served; !errors.Is(err, stream.ErrServerClosed) {
		return err
	}
	return nil
}
