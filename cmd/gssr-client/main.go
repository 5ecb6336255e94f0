// Command gssr-client is the mobile client of the reproduction (the
// Moonlight analogue): it connects to gssr-server, announces its
// capability-probed RoI window, receives frame+RoI packets, decodes them
// and performs the RoI-assisted upscale (DNN SR on the RoI, bilinear
// elsewhere, merged), reporting per-frame statistics.
//
// Observability (DESIGN.md §13): the client carries its own flight
// recorder with recv/decode/upscale/sr/merge/present spans per frame,
// adopting the server's flight IDs from its FramePackets so a client dump
// and the server's merge into one distributed trace (`gssr trace -merge`).
// The handshake's Cristian-style timestamp exchange yields a clock-offset
// estimate (error ≤ RTT/2) from which every frame's end-to-end age
// (server send → client present) is computed, and a periodic Stats message
// reports windowed client-side percentiles back to the server.
//
// Usage:
//
//	gssr-client [-addr localhost:7007] [-device s8] [-scale 2] [-save out.ppm]
//	            [-metrics :9091] [-flight client-flight.json] [-stats-every 60]
//	            [-reconnect 5] [-reconnect-base 500ms] [-reconnect-max 15s]
//	            [-ping 2s]
//
// Fault tolerance (DESIGN.md §15): the client heartbeats (-ping) so the
// server can tell dead from slow, and -reconnect N redials a dropped
// session up to N times with exponential backoff + jitter. The redial
// replays the session's resume token, so the server keeps its identity;
// the new session starts at a keyframe. Typed rejects steer the loop:
// busy/capacity waits (using the server's suggested retry-after when
// present), while bad-hello is fatal — no retry will change the server's
// mind.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/device"
	"gamestreamsr/internal/diag"
	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/sr"
	"gamestreamsr/internal/stats"
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

	// SIGINT/SIGTERM end the session cleanly: the signal context triggers a
	// protocol Bye before the connection drops, so the server logs a clean
	// close, not a network failure.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		slog.Error("gssr-client exiting", "err", err)
		os.Exit(1)
	}
}

// parseFlags reads the command line into a clientConfig. A value the
// reconnect loop cannot work with is refused here, once: the backoff doubles
// from -reconnect-base and draws its jitter from half of it.
func parseFlags(args []string) (clientConfig, error) {
	var cfg clientConfig
	fs := flag.NewFlagSet("gssr-client", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", "localhost:7007", "server address")
	fs.StringVar(&cfg.devName, "device", "s8", "device profile (s8 or pixel)")
	fs.IntVar(&cfg.scale, "scale", 2, "upscale factor, ≥ 1")
	fs.StringVar(&cfg.save, "save", "", "save the last upscaled frame to this PPM path")
	fs.StringVar(&cfg.metricsAddr, "metrics", "", "serve /metrics, /metrics.json and /debug/flight on this address")
	fs.StringVar(&cfg.flightPath, "flight", "", "write the flight-recorder window to this file on exit (Chrome trace JSON)")
	fs.IntVar(&cfg.flightFrames, "flight-frames", frametrace.DefaultFrames, "flight-recorder ring size in frames")
	fs.IntVar(&cfg.statsEvery, "stats-every", 60, "send a Stats backchannel report every N frames (0 disables)")
	fs.IntVar(&cfg.reconnect, "reconnect", 0, "redial a dropped session up to N times (0 disables auto-reconnect)")
	fs.DurationVar(&cfg.reconnectBase, "reconnect-base", 500*time.Millisecond, "initial reconnect backoff, > 0 (doubles per attempt, with jitter)")
	fs.DurationVar(&cfg.reconnectMax, "reconnect-max", 15*time.Second, "reconnect backoff ceiling")
	fs.DurationVar(&cfg.ping, "ping", stream.DefaultPingInterval, "heartbeat interval (0 disables pings)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	var err error
	switch {
	case cfg.scale < 1:
		err = fmt.Errorf("-scale must be at least 1, got %d", cfg.scale)
	case cfg.reconnectBase <= 0:
		err = fmt.Errorf("-reconnect-base must be positive, got %v", cfg.reconnectBase)
	}
	if err != nil {
		fmt.Fprintln(fs.Output(), err)
	}
	return cfg, err
}

type clientConfig struct {
	addr, devName            string
	scale                    int
	save                     string
	metricsAddr, flightPath  string
	flightFrames, statsEvery int

	reconnect                   int
	reconnectBase, reconnectMax time.Duration
	ping                        time.Duration
}

// fatalReject reports whether a typed reject can never succeed on retry:
// the server is saying "you", not "not right now". Busy and capacity are
// load conditions that drain; everything else is final.
func fatalReject(code stream.RejectCode) bool {
	return code != stream.RejectBusy && code != stream.RejectCapacity
}

// sessionState is everything that survives a reconnect: the telemetry
// registry and flight recorder (one continuous window across sessions, so
// the drop and the resume land in the same trace; its Report counts frames
// shown, dropped and missed), the decode/SR engines with the buffer pool
// their frames cycle through, and the session summary's byte count.
type sessionState struct {
	reg     *telemetry.Registry
	rec     *frametrace.Recorder
	ageHist *telemetry.Histogram
	dec     *codec.Decoder
	engine  sr.Engine
	// pool recycles the decoder's frames and side information, the RoI
	// patch and the two output images (the one on display, lastUp, and the
	// one being built), so a steady-state frame allocates no pixel buffers.
	pool *bufpool.Pool

	lastUp     *frame.Image
	bytes      int
	statsSeq   uint32
	reconnects int
	// The Stats windows: per-frame samples since the last report, kept only
	// while the backchannel that empties them is on.
	stats        bool
	wDecode, wSR []float64
	wAge         []float64
	resumeToken  string
}

// newSessionState builds the decode/SR engines around one buffer pool; reg
// may be nil (no metrics).
func newSessionState(reg *telemetry.Registry) *sessionState {
	st := &sessionState{
		reg:    reg,
		dec:    codec.NewDecoder(),
		engine: sr.NewFast(sr.FastConfig{}),
		pool:   bufpool.New(),
	}
	st.dec.SetPool(st.pool)
	return st
}

func run(ctx context.Context, cc clientConfig) error {
	dev, err := device.ProfileByName(cc.devName)
	if err != nil {
		return err
	}
	// The client-side half of the distributed frame trace: a flight
	// recorder whose frame IDs are the server's flight IDs, plus an e2e
	// frame-age histogram on the registry. Shared across reconnects — the
	// trace shows the stall and the resume in one window.
	st := newSessionState(telemetry.NewRegistry())
	st.stats = cc.statsEvery > 0
	st.rec = frametrace.New(frametrace.Config{Frames: cc.flightFrames, Metrics: st.reg})
	st.rec.SetProcess("client")
	st.ageHist = st.reg.Histogram("client_frame_age_seconds", telemetry.LatencyBuckets())
	if cc.metricsAddr != "" {
		if err := diag.ServeMetrics(cc.metricsAddr, st.reg, st.rec, nil); err != nil {
			return err
		}
	}

	start := time.Now()
	rng := rand.New(rand.NewSource(start.UnixNano()))
	backoff := cc.reconnectBase
	attempt := 0
	var sessErr error
	for {
		before := st.rec.Report().Delivered
		sessErr = runSession(ctx, cc, dev, st)
		if sessErr == nil || ctx.Err() != nil {
			sessErr = nil
			break
		}
		// A session that made progress earns a fresh retry budget: the
		// budget bounds consecutive failures, not total drops over hours.
		if st.rec.Report().Delivered > before {
			attempt, backoff = 0, cc.reconnectBase
		}
		wait := backoff + time.Duration(rng.Int63n(int64(backoff)/2+1))
		var rej *stream.RejectedError
		if errors.As(sessErr, &rej) {
			if fatalReject(rej.Code) {
				break
			}
			if rej.RetryAfter > 0 {
				wait = rej.RetryAfter
			}
		}
		if cc.reconnect <= 0 || attempt >= cc.reconnect {
			break
		}
		attempt++
		st.reconnects++
		slog.Warn("session lost; reconnecting", "err", sessErr, "attempt", attempt, "max", cc.reconnect, "wait", wait.Round(time.Millisecond))
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			sessErr = nil
		}
		if ctx.Err() != nil {
			sessErr = nil
			break
		}
		if backoff < cc.reconnectMax {
			backoff = min(backoff*2, cc.reconnectMax)
		}
	}
	elapsed := time.Since(start)
	rep := st.rec.Report()
	slog.Info("session summary", "frames", rep.Delivered, "kb", fmt.Sprintf("%.1f", float64(st.bytes)/1024),
		"fps", fmt.Sprintf("%.1f", float64(rep.Delivered)/elapsed.Seconds()),
		"dropped", rep.Frames-rep.Delivered, "misses", rep.Misses, "reconnects", st.reconnects)
	if cc.flightPath != "" {
		if err := writeFlight(cc.flightPath, st.rec); err != nil {
			return err
		}
		slog.Info("flight dump written", "path", cc.flightPath)
	}
	if cc.save != "" && st.lastUp != nil {
		if err := st.lastUp.SavePPM(cc.save); err != nil {
			return err
		}
		slog.Info("last upscaled frame saved", "path", cc.save)
	}
	return sessErr
}

// runSession dials, handshakes and runs one connection's receive loop,
// folding results into st. It returns nil on a clean end (server Bye,
// source EOF, or an interrupt) and the terminal error otherwise — the
// reconnect loop in run decides what to do with it.
func runSession(ctx context.Context, cc clientConfig, dev *device.Profile, st *sessionState) error {
	// Step ❶ of Fig. 6: the capability probe determines the largest RoI the
	// NPU can super-resolve in real time; it is announced in the Hello. For
	// the small demo streams we also clamp to a fraction of the frame.
	roiWin := dev.MaxRoIWindow(device.RealTimeDeadline)
	conn, err := net.Dial("tcp", cc.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	c := stream.NewClient(conn)
	// A typed Reject comes back as a *stream.RejectedError for the reconnect
	// loop in run to weigh; there is no second attempt here.
	cfg, err := c.Handshake(stream.Hello{
		Device: dev.Name, RoIWindow: min(roiWin, 64), Scale: cc.scale,
		ResumeToken: st.resumeToken,
	})
	if err != nil {
		return err
	}
	if cfg.Token != "" {
		// The resume token: replayed on the next dial, it keeps this
		// client's identity on the server across reconnects.
		st.resumeToken = cfg.Token
	}
	clock := c.Clock()
	slog.Info("stream up", "width", cfg.Width, "height", cfg.Height, "gop", cfg.GOPSize, "q", cfg.QStep, "protocol", cfg.Version)
	if clock.Synced {
		slog.Info("clock sync", "offset", clock.Offset.Round(time.Microsecond),
			"rtt", clock.RTT.Round(time.Microsecond), "offset_err_bound", (clock.RTT / 2).Round(time.Microsecond))
		st.rec.SetClockSync(clock.Offset, clock.RTT)
	}

	// A signal mid-stream sends the Bye and closes the connection,
	// unblocking the receive loop; a session that ends first retires the
	// watcher via sessionDone.
	interrupted := make(chan struct{})
	sessionDone := make(chan struct{})
	defer close(sessionDone)
	go func() {
		select {
		case <-sessionDone:
		case <-ctx.Done():
			select {
			case <-sessionDone: // session already over; nothing to interrupt
			default:
				close(interrupted)
				slog.Info("interrupted: sending bye")
				_ = c.Bye()
				conn.Close()
			}
		}
	}()

	// Heartbeats: the liveness signal the server's reaper watches for. The
	// loop stops with the session; a failed ping just means the connection
	// is going down, which the receive loop will surface.
	if cc.ping > 0 {
		go func() {
			t := time.NewTicker(cc.ping)
			defer t.Stop()
			for {
				select {
				case <-sessionDone:
					return
				case <-t.C:
					if err := c.SendPing(); err != nil {
						return
					}
				}
			}
		}()
	}

	// Send a few demo input events (the interactive path).
	for i := 0; i < 3; i++ {
		if err := c.SendInput(stream.InputPacket{Seq: uint32(i), Payload: []byte("move-forward")}); err != nil {
			return err
		}
	}

	for {
		tRecv := time.Now()
		pkt, err := c.RecvFrame()
		dRecv := time.Since(tRecv)
		if err == io.EOF {
			break
		}
		if err != nil {
			select {
			case <-interrupted:
				err = nil // clean interactive shutdown, not a stream failure
			default:
			}
			if err != nil {
				return err
			}
			break
		}
		shown, err := st.showFrame(pkt, tRecv, dRecv, clock, cc.scale)
		if err != nil {
			return err
		}
		if !shown {
			continue
		}

		// The telemetry backchannel: windowed percentiles every N shown
		// frames (a full window), piggybacked on the input path.
		if cc.statsEvery > 0 && len(st.wDecode) == cc.statsEvery {
			rep := st.rec.Report()
			p := stream.StatsPacket{
				Seq: st.statsSeq, WindowFrames: uint32(len(st.wDecode)),
				Dropped: uint32(rep.Frames - rep.Delivered), Misses: uint32(rep.Misses),
				DecodeP50: pctDur(st.wDecode, 50), DecodeP99: pctDur(st.wDecode, 99),
				SRP50: pctDur(st.wSR, 50), SRP99: pctDur(st.wSR, 99),
				AgeP50: pctDur(st.wAge, 50), AgeP99: pctDur(st.wAge, 99),
			}
			st.statsSeq++
			st.wDecode, st.wSR, st.wAge = st.wDecode[:0], st.wSR[:0], st.wAge[:0]
			if err := c.SendStats(p); err != nil {
				// Not fatal: a report can race the server's end-of-stream
				// close. A real disconnect surfaces on the receive path.
				slog.Warn("stats report not delivered", "seq", p.Seq, "err", err)
			}
		}
	}
	if rtt, pongs := c.PingRTT(); pongs > 0 {
		slog.Info("heartbeat", "pongs", pongs, "rtt", rtt.Round(time.Microsecond))
	}
	// Clean shutdown: say goodbye before dropping the connection (the
	// interrupt path already did).
	select {
	case <-interrupted:
	default:
		_ = c.Bye()
	}
	return nil
}

// showFrame takes one received packet to a presentable frame — decode,
// then the RoI-assisted upscale — and does the per-frame accounting: flight
// spans, end-to-end age, deadline and the Stats windows. It reports false
// for a frame that was dropped (and the display frozen) instead of shown.
func (st *sessionState) showFrame(pkt stream.FramePacket, tRecv time.Time, dRecv time.Duration, clock stream.ClockSync, scale int) (bool, error) {
	// Adopt the server's flight ID (a server that records no flight sends
	// none; fall back to local IDs) so both processes' dumps correlate by
	// frame identity.
	fid := st.rec.BeginFrameAt(pkt.FlightID, int(pkt.Index))
	st.rec.Span(fid, "recv", "recv", tRecv, dRecv)

	tDec := time.Now()
	df, err := st.dec.Decode(pkt.Payload)
	dDec := time.Since(tDec)
	if err != nil {
		// A corrupt frame is dropped, not fatal: the display freezes one
		// frame and the drop rides the next Stats report to the server.
		slog.Warn("frame dropped", "frame", pkt.Index, "err", err)
		st.rec.SetFrozen(fid)
		return false, nil
	}
	st.rec.Span(fid, "decode", "decode", tDec, dDec)

	// A zero RoI is the server shedding to bilinear-only (the shed ladder,
	// DESIGN.md §12): skip the DNN and keep the bilinear frame.
	roiRect := pkt.RoI.Clamp(df.Image.W, df.Image.H)
	base := st.pool.Image(df.Image.W*scale, df.Image.H*scale)
	ut, err := pipeline.UpscaleRoI(base, df.Image, roiRect, scale, st.engine, st.pool)
	// The decoded frame's buffers go back to the pool; its image stays the
	// decoder's inter reference until the next Decode replaces it.
	st.dec.Recycle(df)
	if err != nil {
		st.pool.PutImage(base)
		return false, err
	}
	st.rec.Span(fid, "upscale", "upscale", ut.TUp, ut.DUp)
	if !roiRect.Empty() {
		st.rec.Span(fid, "sr", "sr", ut.TSR, ut.DSR)
		st.rec.Span(fid, "merge", "merge", ut.TMerge, ut.DMerge)
	}
	// Present: the merged frame is ready for the display at this instant.
	tPresent := time.Now()
	st.rec.Span(fid, "present", "present", tPresent, 0)

	// End-to-end frame age, on the server's clock via the handshake
	// offset: how stale this frame is as the user sees it (Fig. 9's
	// end-to-end latency, extended over the wire).
	if pkt.SendUnixMicro != 0 && clock.Synced {
		age := tPresent.Sub(clock.ServerTime(pkt.SendUnixMicro))
		if age < 0 {
			age = 0
		}
		st.rec.SetAge(fid, age)
		st.ageHist.ObserveDuration(age)
		if st.stats {
			st.wAge = append(st.wAge, float64(age.Microseconds()))
		}
	}

	// Client-side deadline accounting: decode through merge must fit the
	// frame budget (recv excluded — it is the server's pacing, not this
	// device's work). The stages are summed into the frame's latency, and
	// bilinear and SR overlap, so the pair enters once, at its wall time,
	// under the name of the one the merge had to wait for — the stage a
	// miss is blamed on. The spans above keep each one's own duration.
	dUp, dSR := ut.DPair, time.Duration(0)
	if ut.TSR.Add(ut.DSR).After(ut.TUp.Add(ut.DUp)) {
		dUp, dSR = 0, ut.DPair
	}
	stages := [4]frametrace.StageLatency{
		{Name: "decode", D: dDec}, {Name: "upscale", D: dUp}, {Name: "sr", D: dSR}, {Name: "merge", D: ut.DMerge},
	}
	st.rec.ObserveDeadline(fid, stages[:])
	if st.stats {
		st.wDecode = append(st.wDecode, float64(dDec.Microseconds()))
		st.wSR = append(st.wSR, float64(ut.DSR.Microseconds()))
	}

	// The frame that was on display is free to be drawn into again.
	st.pool.PutImage(st.lastUp)
	st.lastUp = base
	st.bytes += len(pkt.Payload)
	return true, nil
}

// pctDur computes the p-th percentile of a window of µs samples.
func pctDur(xs []float64, p float64) time.Duration {
	s, err := stats.NewSummary(xs)
	if err != nil {
		return 0
	}
	v, err := s.Percentile(p)
	if err != nil {
		return 0
	}
	return time.Duration(v) * time.Microsecond
}

// writeFlight dumps the recorder window as Chrome trace JSON — one half of
// the merged two-process trace (`gssr trace -merge server.json client.json`).
func writeFlight(path string, rec *frametrace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteFlight(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
