package stream

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/parallel"
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

// ServerOptions configures a one-connection server (Serve).
type ServerOptions struct {
	// Accept is the stream geometry announced to the client.
	Accept Accept
	// Source supplies frames until it returns io.EOF.
	Source FrameSource
}

// byeDrainTimeout bounds how long a finished session waits for its client
// to hang up (see control.finish). A client can be a socket buffer of frames
// behind — about a second at 720p — so the bound is generous; it only binds
// for a peer that neither reads nor closes.
const byeDrainTimeout = 5 * time.Second

// slowSend is the outlier threshold for frame-send logging: three 60 FPS
// frame budgets — a send this slow means the link, not the encoder, is
// pacing the stream.
const slowSend = 50 * time.Millisecond

// slowSendLimit rate-limits the per-session slow-send log lines: a stalled
// socket makes EVERY send slow, and one line per frame at 60 FPS is a log
// flood that buries the signal. The allowed lines carry a suppressed=N
// field so the flood's size survives the limiting.
var slowSendLimit = logx.NewLimiter(1, 3)

// Serve runs one server session over conn: handshake, then frames until the
// source is exhausted, then Bye. It is a one-connection MultiServer — the
// same per-connection path, resume token in the Accept included — with
// read-side liveness off. The session closes conn before Serve returns.
//
// Serve returns on the first error, or — the stream sent in full — once the
// client has hung up behind the server's Bye: the client is expected to
// answer that Bye with its own Bye or by closing. Until it does, for at most
// byeDrainTimeout, Serve keeps the connection half-closed and reading
// (control.finish has the reason), so a client that reads to the Bye and then
// waits for the server to close first holds the session for that long.
func Serve(conn net.Conn, opt ServerOptions) error {
	if opt.Source == nil {
		return errors.New("stream: server needs a frame source")
	}
	s := &MultiServer{
		Accept:      opt.Accept,
		NewSource:   func(Hello) (FrameSource, error) { return opt.Source, nil },
		IdleTimeout: -1,
	}
	s.start()
	// The session labels its goroutine for CPU profiles; one of its own
	// keeps the labels off the caller's.
	done := make(chan error, 1)
	go func() { done <- s.serveConn(conn) }()
	return <-done
}

// readOpening reads a connection's first message. The peer has proved
// nothing yet, so the read is bounded in size (maxOpeningBody, not the 16 MB
// a frame may take) and, when idle > 0, in time: a peer that connects and
// says nothing is dropped like any other silent one. The deadline is left
// armed; a session's control loop re-arms it before every read.
func readOpening(conn net.Conn, idle time.Duration) (Msg, error) {
	if idle > 0 {
		conn.SetReadDeadline(time.Now().Add(idle))
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
// frames.
type control struct {
	sess *session
	// sendMu serializes whole messages onto the socket: pong replies come
	// from run while frames come from the session loop, and a message is
	// two Writes (header, body) that must not interleave.
	sendMu sync.Mutex
	// clientBye distinguishes a clean protocol close from a network failure.
	// stopped ends run after the message in hand. (The session's finished
	// marks its Bye as sent: from then on run only waits for the client to
	// hang up.)
	clientBye, stopped atomic.Bool
	done               chan struct{} // closed when run returns
}

// startControl starts the control loop of sess.
func startControl(sess *session) *control {
	c := &control{sess: sess, done: make(chan struct{})}
	go c.run()
	return c
}

func (c *control) run() {
	defer close(c.done)
	sess, s := c.sess, c.sess.srv
	conn := sess.conn
	// Read-side liveness: the client heartbeats, so a silent connection is a
	// dead one. The deadline is re-armed before every read; when it fires the
	// session is reaped — the conn is closed, which also unblocks a frame
	// writer stuck on a blackholed socket. Slow-but-alive peers are the shed
	// ladder's business.
	idle := s.idleTimeout()
	for !c.stopped.Load() {
		if idle > 0 && !c.sess.finished.Load() {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		m, err := ReadMsg(conn)
		if err != nil {
			// Once the stream is over (finish) a deadline is the end
			// of the wait for the client's hang-up, not a dead peer.
			if idle > 0 && !c.sess.finished.Load() && errors.Is(err, os.ErrDeadlineExceeded) {
				s.Metrics.Counter("stream_sessions_reaped_total").Inc()
				s.log().Warn("stream: reaping session: no traffic (not even a heartbeat)",
					"session", sess.remote, "idle", idle)
				s.Diag.Trigger("session_reaped", "session", sess.identity, "idle", idle)
				conn.Close()
			}
			return
		}
		switch m.Type {
		case MsgInput:
			if s.OnInput != nil {
				s.OnInput(sess.remote, *m.Input)
			}
		case MsgStats:
			sess.handleStats(*m.Stats)
		case MsgPing:
			s.Metrics.Counter("stream_pings_total").Inc()
			ping := *m.Ping
			c.sendMu.Lock()
			if c.sess.finished.Load() {
				// Nothing follows our Bye; the client is only catching up.
				c.sendMu.Unlock()
				break
			}
			err := controlWrite(conn, s.Metrics, s.log(), sess.remote, "pong", func() error {
				return WritePong(conn, PongPacket{Seq: ping.Seq, EchoUnixMicro: ping.SendUnixMicro})
			})
			c.sendMu.Unlock()
			if err != nil {
				return
			}
		case MsgBye:
			c.clientBye.Store(true)
			s.Metrics.Counter("stream_client_bye_total").Inc()
			return
		default:
			return // protocol violation: stop reading
		}
	}
}

// finish ends a session whose stream went out in full with a Bye, written
// under sendMu so that no pong can follow it. The client may be a socket
// buffer behind, so the Bye takes its turn behind the frames. The conn is
// then half-closed (the FIN follows the Bye) and read, for at most
// byeDrainTimeout, until the client's Bye or hang-up ends the control loop.
// Closing at once can find unread client bytes in the socket (a heartbeat
// or Stats report sent after the server stopped listening); TCP then
// answers with a RST, and a RST destroys every frame the client had
// received but not yet read.
func (c *control) finish() error {
	conn := c.sess.conn
	c.sendMu.Lock()
	err := WriteBye(conn)
	c.sess.finished.Store(err == nil)
	c.sendMu.Unlock()
	if err != nil {
		return err
	}
	if cw, ok := conn.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite() // best effort: the Bye alone tells the client as much
	}
	// The reader may re-arm its idle deadline once more if it was between
	// its check of finished and this call; the wait is then bounded by
	// the idle timeout instead, which is of the same order.
	_ = conn.SetReadDeadline(time.Now().Add(byeDrainTimeout))
	<-c.done
	return nil
}

// run builds the admitted session's frame source and streams it, then
// closes the connection and retires the record.
func (sess *session) run(hello Hello, tHello time.Time, token string) error {
	s := sess.srv
	source, err := s.NewSource(hello)
	if err != nil {
		// Tell the client why before closing — a silent close is
		// indistinguishable from a network fault on their side.
		s.drop(sess)
		return s.rejectConn(sess.conn, Reject{Code: RejectBadHello, Reason: err.Error()})
	}
	if sa, ok := source.(SchedAware); ok && sess.client != nil {
		sa.SetSched(sess.client)
	}
	sess.target, _ = source.(Shedder)
	// Label this session's goroutine (and the control loop it starts) so
	// CPU profiles attribute frame production and sends to the session
	// identity. The goroutine is per-connection and exits right after, so
	// there is nothing to restore.
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("session", sess.identity, "stage", "publish")))
	err = sess.serve(source, tHello, token)
	sess.conn.Close()
	if sess.client != nil {
		st := sess.client.Stats()
		if st.Jobs > 0 {
			s.log().Info("stream: session scheduler stats", "session", sess.remote,
				"jobs", st.Jobs, "chunks", st.Chunks, "stolen", st.Stolen,
				"queue_wait", st.StolenWait.Round(time.Microsecond))
		}
	}
	sess.closeStats(s.retire(sess))
	return err
}

// serve is the session's frame loop: the Accept, then per frame the pacer,
// the shed ladder, the source, the send and its deadline accounting with the
// watchdog's check, then the Bye.
func (sess *session) serve(source FrameSource, tHello time.Time, token string) error {
	s, conn, rec := sess.srv, sess.conn, sess.rec
	acc := s.Accept.stamped(tHello)
	acc.Token = token
	if err := WriteAccept(conn, acc); err != nil {
		return fmt.Errorf("stream: writing accept: %w", err)
	}
	ctl := startControl(sess)

	framesSent := s.Metrics.Counter("stream_frames_sent_total")
	bytesSent := s.Metrics.Counter("stream_bytes_sent_total")
	sendLat := s.Metrics.Histogram("stream_frame_send_seconds", telemetry.LatencyBuckets())

	var sendErr error
	// Reused across frames so deadline accounting allocates nothing.
	var latScratch [2]frametrace.StageLatency
	var due time.Time // when the pacer lets the next frame start
	for i := 0; s.MaxFrames == 0 || i < s.MaxFrames; i++ {
		if s.FrameInterval > 0 {
			// The wait is outside the source span: it is not frame work and
			// must not count against the deadline.
			if now := time.Now(); due.After(now) {
				time.Sleep(due.Sub(now))
			} else {
				due = now
			}
			due = due.Add(s.FrameInterval)
		}
		if s.closed.Load() {
			break // Shutdown: the stream ends here, with the Bye below
		}
		tSrc := time.Now()
		if s.Shed != nil {
			sess.evaluate(i)
		}
		payload, key, roi, err := source.NextFrame(i)
		dSrc := time.Since(tSrc)
		if err == io.EOF {
			break
		}
		if err != nil {
			sendErr = fmt.Errorf("stream: frame source: %w", err)
			break
		}
		pkt := FramePacket{Index: uint32(i), Keyenc: key, RoI: roi, Payload: payload}
		fid := rec.BeginFrame(i)
		rec.SetEncode(fid, roi, len(payload), len(payload))
		rec.Span(fid, "source", "source", tSrc, dSrc)
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
		rec.Span(fid, "send", "send", t0, d)
		// Frame production (render + detect + encode) plus the send are the
		// server's whole per-frame budget; accounting both against the
		// recorder's deadline makes an overloaded scheduler or a stalled
		// client socket visible as a miss streak on /metrics — the signal
		// the shed ladder, admission control and the watchdog key off.
		latScratch[0] = frametrace.StageLatency{Name: "source", D: dSrc}
		latScratch[1] = frametrace.StageLatency{Name: "send", D: d}
		rec.ObserveDeadline(fid, latScratch[:])
		sess.watch(fid, dSrc+d)
		if d > slowSend {
			if ok, suppressed := slowSendLimit.Allow("slow_send:" + sess.remote); ok {
				kv := []any{"session", sess.remote, "frame", i, "flight", fid, "took", d,
					"bytes", len(payload), "roi_w", roi.W, "roi_h", roi.H}
				if suppressed > 0 {
					kv = append(kv, "suppressed", suppressed)
				}
				s.log().Warn("stream: slow send", kv...)
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
	if sendErr != nil {
		if ctl.clientBye.Load() {
			s.log().Info("stream: client closed cleanly (bye received)", "session", sess.remote)
		} else {
			s.log().Warn("stream: session ended without bye", "session", sess.remote, "err", sendErr)
		}
	}
	// The read goroutine exits when the client sends Bye or the connection
	// closes; do not block on it here.
	return sendErr
}

// watch is the SLO watchdog's check, run after each frame's deadline
// accounting: a sustained deadline-miss streak freezes a capture bundle
// with the triggering frames still in the flight window. The threshold
// tracks the shed ladder's escalation streak so a bundle lands exactly when
// shedding starts; Diag's cooldown turns a 100-frame streak (one check per
// missed frame) into one bundle, not a capture storm.
func (sess *session) watch(fid uint64, latency time.Duration) {
	s := sess.srv
	if s.Diag == nil {
		return
	}
	// The streak counts this frame's miss; a frame on budget resets it.
	if streak := sess.rec.MissStreak(); streak >= int64(s.shedPolicy().EscalateStreak) {
		s.Diag.Trigger("miss_streak", "session", sess.identity, "streak", streak,
			"flight", fid, "slack", sess.rec.Deadline()-latency)
	}
}

// shedLogLimit rate-limits the per-session shed-transition log lines: a
// session oscillating at the capacity edge climbs and descends repeatedly,
// and each transition is one line — the limiter keeps a flapping ladder
// from flooding the log while the suppressed count still records how often
// it flapped.
var shedLogLimit = logx.NewLimiter(1, 4)

// evaluate is the shed ladder's step before frame i is asked for: it reads
// the session recorder's miss streak and escalates (or, after sustained
// recovery, descends) the session's shed level, applying it to the source
// (Shedder) and the scheduler client (priority demotion at ShedDemoted).
// It runs on the frame loop, so all ladder state except the level is
// single-goroutine.
func (sess *session) evaluate(i int) {
	s, pol := sess.srv, sess.srv.shedPolicy()
	streak := sess.rec.MissStreak()
	level := int(sess.shed.Load())
	if streak == 0 {
		sess.arm = int64(pol.EscalateStreak)
		if level > 0 {
			sess.clean++
			if sess.clean >= int64(pol.RecoverFrames) {
				sess.setLevel(i, level-1)
				sess.clean = 0
				s.ctrs.recoveries.Inc()
			}
		}
		return
	}
	sess.clean = 0
	if sess.arm == 0 {
		sess.arm = int64(pol.EscalateStreak)
	}
	if streak >= sess.arm && level < ShedDemoted {
		sess.setLevel(i, level+1)
		// Re-arm relative to the current streak, so a streak that keeps
		// growing climbs one rung per EscalateStreak further misses
		// instead of one rung per frame.
		sess.arm = streak + int64(pol.EscalateStreak)
		s.ctrs.escalations.Inc()
		// A climb means sustained misses despite the previous level's
		// relief — worth a capture bundle (the diag cooldown dedupes the
		// rungs of one incident into a single bundle).
		s.Diag.Trigger("shed_escalation",
			"session", sess.remote, "level", level+1, "frame", i, "streak", streak)
	}
}

func (sess *session) setLevel(i, level int) {
	old := int(sess.shed.Swap(int32(level)))
	if sess.target != nil {
		sess.target.SetShedLevel(level)
	}
	if sess.client != nil {
		if level >= ShedDemoted {
			sess.client.SetPriority(parallel.Background)
		} else {
			sess.client.SetPriority(parallel.Normal)
		}
	}
	if ok, suppressed := shedLogLimit.Allow("shed:" + sess.remote); ok {
		kv := []any{"session", sess.remote, "from", old, "to", level, "frame", i,
			"flight", sess.rec.LastID(), "streak", sess.rec.MissStreak()}
		if suppressed > 0 {
			kv = append(kv, "suppressed", suppressed)
		}
		sess.srv.log().Warn("stream: shed level change", kv...)
	}
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
// report in flight. Handshake and RecvFrame read through one buffer over
// the connection, so a message's type byte and length varint cost no read
// of their own.
type Client struct {
	conn    io.ReadWriter
	r       *bufio.Reader
	writeMu sync.Mutex
	sync    ClockSync

	pingSeq  uint32       // under writeMu
	rttMicro atomic.Int64 // latest heartbeat RTT, µs
	pongs    atomic.Uint32
}

// NewClient wraps an established connection.
func NewClient(conn io.ReadWriter) *Client {
	return &Client{conn: conn, r: bufio.NewReader(conn)}
}

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
	msg, err := ReadMsg(c.r)
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
	cfg := *msg.Accept
	if sendUS > 0 && cfg.RecvUnixMicro > 0 {
		// NTP-style two-sample estimate: T0/T3 on the client clock, T1/T2
		// on the server's.
		t1 := cfg.RecvUnixMicro
		t2 := cfg.SendUnixMicro
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
	return cfg, nil
}

// Clock returns the handshake's clock-sync estimate (Synced false before
// Handshake).
func (c *Client) Clock() ClockSync { return c.sync }

// RecvFrame returns the next frame packet, or io.EOF after the server's
// Bye. A connection that closes between messages without a Bye is an error
// wrapping io.ErrUnexpectedEOF: the session was cut, not finished.
// Heartbeat pongs arriving between frames are consumed here — the RTT
// sample they carry updates PingRTT and the read continues.
func (c *Client) RecvFrame() (FramePacket, error) {
	for {
		msg, err := ReadMsg(c.r)
		if err == io.EOF {
			return FramePacket{}, fmt.Errorf("stream: connection closed without bye: %w", io.ErrUnexpectedEOF)
		}
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
