package stream

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/telemetry"
)

// FrameSource supplies coded frames to a server session. Implementations
// typically wrap a renderer + RoI detector + encoder (see pipeline.Source).
type FrameSource interface {
	// NextFrame returns the coded payload, whether it is a reference
	// frame, and the RoI rectangle for frame index i. io.EOF ends the
	// session cleanly.
	NextFrame(i int) (payload []byte, key bool, roi frame.Rect, err error)
}

// ServerOptions configures a server session.
type ServerOptions struct {
	// Accept is the stream geometry announced to the client.
	Accept Accept
	// Source supplies frames until it returns io.EOF or MaxFrames is hit.
	Source FrameSource
	// MaxFrames bounds the session length; 0 means until Source EOF.
	MaxFrames int
	// FrameInterval, when > 0, paces the stream: Source is asked for frames
	// on a schedule of one every FrameInterval — a live game ticks at its
	// own rate however quick the host is. A frame whose turn has passed by
	// the time the one before it is on the wire (a slow source, a stalled
	// socket) starts at once and the schedule restarts from it; nothing is
	// caught up with a burst. 0 streams as fast as Source and the
	// connection allow.
	FrameInterval time.Duration
	// OnInput, if non-nil, receives client input events.
	OnInput func(InputPacket)
	// OnStats, if non-nil, receives the client's periodic telemetry
	// backchannel reports (see StatsPacket). Called from the session's read
	// goroutine — keep it fast.
	OnStats func(StatsPacket)
	// Metrics, when non-nil, receives per-session telemetry: frames and
	// payload bytes sent, and a per-frame send-latency histogram. Nil is
	// a no-op.
	Metrics *telemetry.Registry
	// Flight, when non-nil, records every frame send into a flight
	// recorder: the send span on the "send" lane plus the frame's RoI and
	// payload size, and the send latency accounted against the recorder's
	// deadline — so a stalled socket shows up as a deadline-miss streak and
	// the window around it can be dumped (see internal/frametrace). The
	// recorder's frame IDs also tag the slow-send log lines, correlating
	// server logs with client-side traces of the same stream. Nil is a
	// no-op.
	Flight *frametrace.Recorder
	// SlowSend is the send-latency threshold above which a frame's send is
	// logged as an outlier (with its index and flight-recorder frame ID).
	// 0 picks DefaultSlowSend; negative disables the log.
	SlowSend time.Duration
	// Remote tags this session's log lines (typically the client address).
	Remote string
	// ResumeToken, when non-empty, rides in the Accept: the opaque handle a
	// reconnecting client replays in its Hello to be correlated with this
	// session.
	ResumeToken string
	// IdleTimeout, when > 0, arms read-side liveness: the client heartbeats
	// (MsgPing), the session pongs, and a connection that stays silent past
	// the timeout — from the first byte of its Hello on — is reaped as dead
	// (the connection is closed, unblocking the frame writer).
	IdleTimeout time.Duration
	// Log receives the session's structured log lines (slow sends, reaps,
	// session-end diagnosis), tagged with session/frame/flight fields. Nil
	// uses logx.Default().
	Log *logx.Logger
	// OnReap, if non-nil, is called when read-side liveness reaps the
	// session (no traffic for IdleTimeout) — MultiServer wires it to the
	// diag watchdog so a reap freezes a capture bundle.
	OnReap func(idle time.Duration)
}

// byeDrainTimeout bounds how long a finished session waits for its client
// to hang up (see awaitHangup). A client can be a socket buffer of frames
// behind — about a second at 720p — so the bound is generous; it only binds
// for a peer that neither reads nor closes.
const byeDrainTimeout = 5 * time.Second

// awaitHangup ends a session whose Bye is on the wire: it half-closes conn
// (the FIN follows the Bye) and waits, for at most byeDrainTimeout, until
// the session's control loop sees the client's Bye or hang-up. Without it
// the caller's Close can find unread client bytes in the socket (a
// heartbeat or Stats report sent after the server stopped listening); TCP
// then answers with a RST, and a RST destroys every frame the client had
// received but not yet read. A conn without read deadlines cannot bound
// the wait, so it is closed as before.
func awaitHangup(conn io.ReadWriter, readDone <-chan struct{}) {
	rd, ok := conn.(interface{ SetReadDeadline(time.Time) error })
	if !ok {
		return
	}
	if cw, ok := conn.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite() // best effort: the Bye alone tells the client as much
	}
	// The reader may re-arm its idle deadline once more if it was between
	// its check of finished and the call; the wait is then bounded by
	// IdleTimeout instead, which is of the same order.
	_ = rd.SetReadDeadline(time.Now().Add(byeDrainTimeout))
	<-readDone
}

// DefaultSlowSend is the default outlier threshold for frame-send logging:
// three 60 FPS frame budgets — a send this slow means the link, not the
// encoder, is pacing the stream.
const DefaultSlowSend = 50 * time.Millisecond

// slowSendLimit rate-limits the per-session slow-send log lines: a stalled
// socket makes EVERY send slow, and one line per frame at 60 FPS is a log
// flood that buries the signal. The allowed lines carry a suppressed=N
// field so the flood's size survives the limiting.
var slowSendLimit = logx.NewLimiter(1, 3)

// Serve runs one server session over conn: handshake, then frames until the
// source is exhausted, then Bye. Client input arriving during the stream is
// dispatched to OnInput from a separate goroutine. The caller owns the
// connection and closes it after Serve returns.
//
// Serve returns on the first error, or — the stream sent in full — once the
// client has hung up behind the server's Bye: the client is expected to
// answer that Bye with its own Bye or by closing. Until it does, for at most
// byeDrainTimeout, Serve keeps the connection half-closed and reading
// (awaitHangup has the reason), so a client that reads to the Bye and then
// waits for the server to close first holds the session — and its admission
// slot on a MultiServer — for that long.
func Serve(conn io.ReadWriter, opt ServerOptions) error {
	if opt.Source == nil {
		return errors.New("stream: server needs a frame source")
	}
	msg, err := readOpening(conn, opt.IdleTimeout)
	tHello := time.Now() // T1 of the client's Cristian offset estimate
	if badHello(msg, err) {
		controlWrite(conn, opt.Metrics, opt.Log, opt.Remote, "reject", func() error {
			return WriteReject(conn, Reject{Code: RejectBadHello, Reason: err.Error()})
		})
		return fmt.Errorf("stream: rejecting client: %w", err)
	}
	if err != nil {
		return fmt.Errorf("stream: reading hello: %w", err)
	}
	if msg.Type != MsgHello {
		return fmt.Errorf("%w: expected hello, got %v", ErrProtocol, msg.Type)
	}
	return serveHello(conn, *msg.Hello, tHello, opt)
}

// readOpening reads a connection's first message. The peer has proved
// nothing yet, so the read is bounded in size (maxOpeningBody, not the 16 MB
// a frame may take) and, when idle > 0 and the transport has deadlines, in
// time: a peer that connects and says nothing is dropped like any other
// silent one. The deadline is left armed; a session's control loop re-arms
// it before every read.
func readOpening(conn io.Reader, idle time.Duration) (Msg, error) {
	if rd, ok := conn.(interface{ SetReadDeadline(time.Time) error }); ok && idle > 0 {
		rd.SetReadDeadline(time.Now().Add(idle))
	}
	return readMsgMax(conn, maxOpeningBody)
}

// badHello reports that a connection's opening read failed on a Hello that
// arrived whole but did not parse. The peer is owed a RejectBadHello with
// the reason: a silent close would look like a network fault to it.
func badHello(msg Msg, err error) bool {
	return msg.Type == MsgHello && errors.Is(err, ErrProtocol)
}

// checkVersion vets the version a Hello announced: this build
// speaks ProtocolVersion and nothing else. The error text is the reason of
// the RejectBadHello the peer is owed.
func checkVersion(ver int) error {
	if ver != ProtocolVersion {
		return fmt.Errorf("protocol version %d, this server speaks %d", ver, ProtocolVersion)
	}
	return nil
}

// stamped returns acc as a session sends it: with the protocol version and
// the server's clock pair — tRecv, when the client's Hello arrived (T1), and
// now (T2).
func (acc Accept) stamped(tRecv time.Time) Accept {
	acc.Version = ProtocolVersion
	acc.RecvUnixMicro = tRecv.UnixMicro()
	acc.SendUnixMicro = time.Now().UnixMicro()
	return acc
}

// control is the read side of a session, and the way a session that sent
// its whole stream ends. run drains what the client sends (input events,
// Stats reports, heartbeats, Bye) while the session's own goroutine streams
// frames. Of opt it uses Remote, IdleTimeout, Metrics, Log,
// OnInput, OnStats and OnReap.
type control struct {
	conn io.ReadWriter
	opt  *ServerOptions
	// sendMu serializes whole messages onto the socket: pong replies come
	// from run while frames come from the session loop, and a message is
	// two Writes (header, body) that must not interleave.
	sendMu sync.Mutex
	// clientBye distinguishes a clean protocol close from a network failure.
	// finished marks the stream as sent in full, Bye included: from then on
	// run only waits for the client to hang up (awaitHangup). stopped ends
	// run after the message in hand.
	clientBye, finished, stopped atomic.Bool
	done                         chan struct{} // closed when run returns
}

// startControl starts the control loop of a session on conn.
func startControl(conn io.ReadWriter, opt *ServerOptions) *control {
	c := &control{conn: conn, opt: opt, done: make(chan struct{})}
	go c.run()
	return c
}

func (c *control) run() {
	defer close(c.done)
	opt := c.opt
	// Read-side liveness: the client heartbeats, so a silent connection is a
	// dead one. The deadline is re-armed before every read; when it fires the
	// session is reaped — the conn is closed, which also unblocks a frame
	// writer stuck on a blackholed socket. Slow-but-alive peers are the shed
	// ladder's business.
	rd, canDeadline := c.conn.(interface{ SetReadDeadline(time.Time) error })
	liveness := opt.IdleTimeout > 0 && canDeadline
	for !c.stopped.Load() {
		if liveness && !c.finished.Load() {
			rd.SetReadDeadline(time.Now().Add(opt.IdleTimeout))
		}
		m, err := ReadMsg(c.conn)
		if err != nil {
			// Once the stream is over (awaitHangup) a deadline is the end
			// of the wait for the client's hang-up, not a dead peer.
			if liveness && !c.finished.Load() && errors.Is(err, os.ErrDeadlineExceeded) {
				opt.Metrics.Counter("stream_sessions_reaped_total").Inc()
				opt.Log.Warn("stream: reaping session: no traffic (not even a heartbeat)",
					"session", opt.Remote, "idle", opt.IdleTimeout)
				if opt.OnReap != nil {
					opt.OnReap(opt.IdleTimeout)
				}
				if cl, ok := c.conn.(io.Closer); ok {
					cl.Close()
				}
			}
			return
		}
		switch m.Type {
		case MsgInput:
			if opt.OnInput != nil {
				opt.OnInput(*m.Input)
			}
		case MsgStats:
			if opt.OnStats != nil {
				opt.OnStats(*m.Stats)
			}
		case MsgPing:
			opt.Metrics.Counter("stream_pings_total").Inc()
			ping := *m.Ping
			c.sendMu.Lock()
			if c.finished.Load() {
				// Nothing follows our Bye; the client is only catching up.
				c.sendMu.Unlock()
				break
			}
			err := controlWrite(c.conn, opt.Metrics, opt.Log, opt.Remote, "pong", func() error {
				return WritePong(c.conn, PongPacket{Seq: ping.Seq, EchoUnixMicro: ping.SendUnixMicro})
			})
			c.sendMu.Unlock()
			if err != nil {
				return
			}
		case MsgBye:
			c.clientBye.Store(true)
			opt.Metrics.Counter("stream_client_bye_total").Inc()
			return
		default:
			return // protocol violation: stop reading
		}
	}
}

// finish ends a session whose stream went out in full with a Bye, written
// under sendMu so that no pong can follow it. The client may be a socket
// buffer behind, so the Bye takes its turn behind the frames, and the conn
// is then half-closed and read until the client hangs up (awaitHangup).
func (c *control) finish() error {
	c.sendMu.Lock()
	err := WriteBye(c.conn)
	c.finished.Store(err == nil)
	c.sendMu.Unlock()
	if err != nil {
		return err
	}
	awaitHangup(c.conn, c.done)
	return nil
}

// serveHello runs a server session whose opening Hello has already been
// read (tHello is its arrival time, T1 of the client's clock estimate) —
// the entry point for callers that read the first message themselves, like
// MultiServer.
func serveHello(conn io.ReadWriter, hello Hello, tHello time.Time, opt ServerOptions) error {
	if err := checkVersion(hello.Version); err != nil {
		// Tell the client why before closing — a silent close is
		// indistinguishable from a network fault on their side.
		controlWrite(conn, opt.Metrics, opt.Log, opt.Remote, "reject", func() error {
			return WriteReject(conn, Reject{Code: RejectBadHello, Reason: err.Error()})
		})
		return fmt.Errorf("stream: rejecting client: %w", err)
	}
	acc := opt.Accept.stamped(tHello)
	acc.Token = opt.ResumeToken
	if err := WriteAccept(conn, acc); err != nil {
		return fmt.Errorf("stream: writing accept: %w", err)
	}
	ctl := startControl(conn, &opt)

	framesSent := opt.Metrics.Counter("stream_frames_sent_total")
	bytesSent := opt.Metrics.Counter("stream_bytes_sent_total")
	sendLat := opt.Metrics.Histogram("stream_frame_send_seconds", telemetry.LatencyBuckets())
	slowSend := opt.SlowSend
	if slowSend == 0 {
		slowSend = DefaultSlowSend
	}

	var sendErr error
	// Reused across frames so deadline accounting allocates nothing.
	var latScratch [2]frametrace.StageLatency
	var due time.Time // when the pacer lets the next frame start
	for i := 0; opt.MaxFrames == 0 || i < opt.MaxFrames; i++ {
		if opt.FrameInterval > 0 {
			// The wait is outside the source span: it is not frame work and
			// must not count against the deadline.
			if now := time.Now(); due.After(now) {
				time.Sleep(due.Sub(now))
			} else {
				due = now
			}
			due = due.Add(opt.FrameInterval)
		}
		tSrc := time.Now()
		payload, key, roi, err := opt.Source.NextFrame(i)
		dSrc := time.Since(tSrc)
		if err == io.EOF {
			break
		}
		if err != nil {
			sendErr = fmt.Errorf("stream: frame source: %w", err)
			break
		}
		pkt := FramePacket{Index: uint32(i), Keyenc: key, RoI: roi, Payload: payload}
		fid := opt.Flight.BeginFrame(i)
		opt.Flight.SetEncode(fid, roi, len(payload), len(payload))
		opt.Flight.Span(fid, "source", "source", tSrc, dSrc)
		t0 := time.Now()
		// The frame's wire identity: the server's flight ID (the client
		// recorder adopts it, so both dumps correlate) and the server clock
		// at send, from which the client computes the clock-corrected
		// end-to-end frame age.
		pkt.FlightID = fid
		pkt.SendUnixMicro = t0.UnixMicro()
		ctl.sendMu.Lock()
		err = WriteFrame(conn, pkt)
		ctl.sendMu.Unlock()
		if err != nil {
			sendErr = fmt.Errorf("stream: writing frame %d: %w", i, err)
			break
		}
		d := time.Since(t0)
		opt.Flight.Span(fid, "send", "send", t0, d)
		// Frame production (render + detect + encode) plus the send are the
		// server's whole per-frame budget; accounting both against the
		// recorder's deadline makes an overloaded scheduler or a stalled
		// client socket visible as a miss streak on /metrics — the signal
		// the shed ladder and admission control key off.
		latScratch[0] = frametrace.StageLatency{Name: "source", D: dSrc}
		latScratch[1] = frametrace.StageLatency{Name: "send", D: d}
		opt.Flight.ObserveDeadline(fid, latScratch[:])
		if slowSend > 0 && d > slowSend {
			if ok, suppressed := slowSendLimit.Allow("slow_send:" + opt.Remote); ok {
				kv := []any{"session", opt.Remote, "frame", i, "flight", fid, "took", d,
					"bytes", len(payload), "roi_w", roi.W, "roi_h", roi.H}
				if suppressed > 0 {
					kv = append(kv, "suppressed", suppressed)
				}
				opt.Log.Warn("stream: slow send", kv...)
			}
		}
		sendLat.ObserveDuration(d)
		framesSent.Inc()
		bytesSent.Add(int64(len(payload)))
	}
	if sendErr == nil {
		sendErr = ctl.finish()
	}
	ctl.stopped.Store(true)
	// A session that dies mid-send is either the client leaving politely
	// (its Bye raced our next frame) or the network failing; the closing
	// log line tells them apart so session logs are diagnosable.
	if opt.Remote != "" && sendErr != nil {
		if ctl.clientBye.Load() {
			opt.Log.Info("stream: client closed cleanly (bye received)", "session", opt.Remote)
		} else {
			opt.Log.Warn("stream: session ended without bye", "session", opt.Remote, "err", sendErr)
		}
	}
	// The read goroutine exits when the client sends Bye or the caller
	// closes the connection; do not block on it here.
	return sendErr
}

// ClockSync is the client's Cristian-style estimate of the server clock,
// taken from the handshake's timestamp exchange: Offset estimates
// serverClock − clientClock, and the estimate's error is bounded by RTT/2
// (the classic bound — the true offset lies within ±RTT/2 of the
// estimate, since the request and reply legs split the round trip
// unknowably).
type ClockSync struct {
	// Offset is the estimated serverClock − clientClock.
	Offset time.Duration
	// RTT is the handshake round trip minus the server's hold time — the
	// network component only, which bounds the offset estimate's error.
	RTT time.Duration
	// Synced reports whether the timestamp exchange happened (false before
	// the handshake, and when the server's Accept carried no clock).
	Synced bool
}

// ServerTime converts a server-clock timestamp (µs since the Unix epoch,
// as carried by FramePackets) into the client's clock.
func (cs ClockSync) ServerTime(unixMicro int64) time.Time {
	return time.UnixMicro(unixMicro).Add(-cs.Offset)
}

// Client is the Moonlight-analogue session endpoint. Its write methods
// (SendInput, SendStats, Bye) are safe to call from different goroutines —
// a shutdown path sending Bye must not interleave bytes with a stats
// report in flight.
type Client struct {
	conn    io.ReadWriter
	writeMu sync.Mutex
	cfg     Accept
	sync    ClockSync

	pingSeq  uint32       // under writeMu
	rttMicro atomic.Int64 // latest heartbeat RTT, µs
	pongs    atomic.Uint32
}

// NewClient wraps an established connection.
func NewClient(conn io.ReadWriter) *Client { return &Client{conn: conn} }

// Handshake sends the Hello (the device's capability probe result) and
// returns the server's stream geometry. It also performs the clock
// exchange: the client's send time rides in the Hello, the server's
// receive/send pair rides back in the Accept, and the resulting offset +
// RTT estimate is available from Clock. A zero Version or SendUnixMicro is
// filled in (ProtocolVersion, now).
func (c *Client) Handshake(h Hello) (Accept, error) {
	if h.Version == 0 {
		h.Version = ProtocolVersion
	}
	if h.SendUnixMicro == 0 {
		h.SendUnixMicro = time.Now().UnixMicro()
	}
	c.writeMu.Lock()
	err := WriteHello(c.conn, h)
	c.writeMu.Unlock()
	if err != nil {
		return Accept{}, fmt.Errorf("stream: writing hello: %w", err)
	}
	return c.awaitAccept(h.SendUnixMicro)
}

// awaitAccept reads the server's Accept (or Reject) and stores the stream
// geometry. sendUS is the client-clock send time of the Hello; with the
// server's clock pair it completes the Cristian offset + RTT estimate.
func (c *Client) awaitAccept(sendUS int64) (Accept, error) {
	msg, err := ReadMsg(c.conn)
	t3 := time.Now()
	if err != nil {
		return Accept{}, fmt.Errorf("stream: reading accept: %w", err)
	}
	if msg.Type == MsgReject {
		return Accept{}, &RejectedError{
			Code:       msg.Reject.Code,
			Reason:     msg.Reject.Reason,
			RetryAfter: time.Duration(msg.Reject.RetryAfterMs) * time.Millisecond,
		}
	}
	if msg.Type != MsgAccept {
		return Accept{}, fmt.Errorf("%w: expected accept, got %v", ErrProtocol, msg.Type)
	}
	c.cfg = *msg.Accept
	if sendUS > 0 && c.cfg.RecvUnixMicro > 0 {
		// NTP-style two-sample estimate: T0/T3 on the client clock, T1/T2
		// on the server's.
		t1 := c.cfg.RecvUnixMicro
		t2 := c.cfg.SendUnixMicro
		offUS := ((t1 - sendUS) + (t2 - t3.UnixMicro())) / 2
		rttUS := (t3.UnixMicro() - sendUS) - (t2 - t1)
		if rttUS < 0 {
			rttUS = 0
		}
		c.sync = ClockSync{
			Offset: time.Duration(offUS) * time.Microsecond,
			RTT:    time.Duration(rttUS) * time.Microsecond,
			Synced: true,
		}
	}
	return c.cfg, nil
}

// Config returns the stream geometry the server announced (zero before
// Handshake).
func (c *Client) Config() Accept { return c.cfg }

// Clock returns the handshake's clock-sync estimate (Synced false before
// Handshake).
func (c *Client) Clock() ClockSync { return c.sync }

// RecvFrame returns the next frame packet, or io.EOF after the server's
// Bye. Heartbeat pongs arriving between frames are consumed here — the RTT
// sample they carry updates PingRTT and the read continues.
func (c *Client) RecvFrame() (FramePacket, error) {
	for {
		msg, err := ReadMsg(c.conn)
		if err != nil {
			return FramePacket{}, err
		}
		switch msg.Type {
		case MsgFrame:
			return *msg.Frame, nil
		case MsgBye:
			return FramePacket{}, io.EOF
		case MsgPong:
			if us := msg.Pong.EchoUnixMicro; us > 0 {
				rtt := time.Since(time.UnixMicro(us))
				if rtt < 0 {
					rtt = 0
				}
				c.rttMicro.Store(rtt.Microseconds())
			}
			c.pongs.Add(1)
		default:
			return FramePacket{}, fmt.Errorf("%w: expected frame, got %v", ErrProtocol, msg.Type)
		}
	}
}

// SendPing ships a liveness heartbeat: the server echoes the timestamp in a
// Pong, which RecvFrame consumes into PingRTT.
func (c *Client) SendPing() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.pingSeq++
	return WritePing(c.conn, PingPacket{Seq: c.pingSeq, SendUnixMicro: time.Now().UnixMicro()})
}

// PingRTT returns the most recent heartbeat round trip and how many pongs
// have been observed (zero before the first).
func (c *Client) PingRTT() (time.Duration, int) {
	return time.Duration(c.rttMicro.Load()) * time.Microsecond, int(c.pongs.Load())
}

// SendInput ships a user-input event to the server.
func (c *Client) SendInput(in InputPacket) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return WriteInput(c.conn, in)
}

// SendStats ships a telemetry backchannel report to the server.
func (c *Client) SendStats(st StatsPacket) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return WriteStats(c.conn, st)
}

// Bye announces a clean shutdown to the server, so its session log can
// distinguish a deliberate close from a network failure. The connection
// stays open; the caller closes it.
func (c *Client) Bye() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return WriteBye(c.conn)
}
