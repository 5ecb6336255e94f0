package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gamestreamsr/internal/diag"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/telemetry"
)

// SourceFactory creates a fresh FrameSource per session: each client gets
// its own encoder/detector state (stateful codecs cannot be shared).
type SourceFactory func(hello Hello) (FrameSource, error)

// SchedAware is an optional FrameSource capability: sources that run
// parallel kernels (render, detect, encode) implement it to receive the
// session's scheduler client, so their work is dispatched by the session's
// priority instead of the default client's.
type SchedAware interface {
	SetSched(c *parallel.Client)
}

// Shedder is an optional FrameSource capability: sources that can degrade
// quality implement it to receive shed-ladder level changes. Levels are the
// Shed* constants; the source applies everything up to and including the
// given level (0 restores full quality).
type Shedder interface {
	SetShedLevel(level int)
}

// Shed-ladder levels, mildest first. Each level includes the ones below it.
const (
	// ShedNone: full quality.
	ShedNone = 0
	// ShedRoIShrink: halve the RoI window, cutting the NPU-path work ~4×
	// while keeping SR on the most salient region.
	ShedRoIShrink = 1
	// ShedBilinearOnly: drop RoI detection and SR entirely — the client
	// falls back to its GPU bilinear path (the paper's SOTA baseline).
	ShedBilinearOnly = 2
	// ShedDemoted: additionally demote the session's scheduler client to
	// Background priority, so its remaining work only uses worker cycles
	// the on-budget sessions leave idle.
	ShedDemoted = 3
)

// ShedPolicy drives the per-session shed ladder from the session's
// deadline-miss streak: EscalateStreak consecutive misses climb one rung,
// RecoverFrames consecutive on-budget frames descend one. The top rung is
// ShedDemoted.
type ShedPolicy struct {
	// EscalateStreak is the consecutive-miss count that triggers a climb
	// (default 8 — half a 60 FPS GOP of sustained misses, long enough to
	// ignore one-frame spikes).
	EscalateStreak int
	// RecoverFrames is the consecutive on-budget frame count that triggers
	// a descent (default 240 — recovery is deliberately much slower than
	// escalation so the ladder doesn't oscillate at the capacity edge).
	RecoverFrames int
}

func (p ShedPolicy) withDefaults() ShedPolicy {
	if p.EscalateStreak <= 0 {
		p.EscalateStreak = 8
	}
	if p.RecoverFrames <= 0 {
		p.RecoverFrames = 240
	}
	return p
}

// AdmissionPolicy keys new-session admission off the live sessions' SLO
// state: a session is admitted only while the aggregate windowed p99 frame
// latency leaves at least MinSlack of headroom against the deadline. The
// per-session recorders' rings are the latency window.
type AdmissionPolicy struct {
	// MinSlack is the minimum (deadline − aggregate p99) required to admit
	// (default 0: reject once p99 slack goes negative, i.e. the fleet is
	// already missing deadlines at the tail).
	MinSlack time.Duration
	// MinSamples is the minimum number of delivered frames across the live
	// windows before the policy may reject (default 32) — a cold server
	// admits; rejection needs evidence.
	MinSamples int
}

func (p AdmissionPolicy) withDefaults() AdmissionPolicy {
	if p.MinSamples <= 0 {
		p.MinSamples = 32
	}
	return p
}

// MultiServer accepts and serves many concurrent client sessions — the
// shape a real cloud-gaming host has (the paper's Sunshine hosts one stream
// per machine, GeForce-Now-class services multiplex many). With Sched,
// Admission and Shed configured it is also the control plane: per-session
// scheduler clients, SLO-keyed admission control and a per-session shed
// ladder (see DESIGN.md §12).
//
// Every session is one player's stream: a connection opens with a Hello and
// gets its own game source and encode pipeline. There are no spectators
// (DESIGN.md §14).
type MultiServer struct {
	// Accept is the stream geometry announced to every client.
	Accept Accept
	// NewSource builds the per-session frame source.
	NewSource SourceFactory
	// MaxFrames bounds each session (0 = until source EOF).
	MaxFrames int
	// FrameInterval, when > 0, paces every session: its source is asked
	// for frames on a schedule of one every FrameInterval — a live game
	// ticks at its own rate however quick the host is. A frame whose turn
	// has passed by the time the one before it is on the wire (a slow
	// source, a stalled socket) starts at once and the schedule restarts
	// from it; nothing is caught up with a burst. 0 streams as fast as the
	// source and the connection allow.
	FrameInterval time.Duration
	// MaxSessions bounds concurrent sessions (default 16); excess
	// connections receive a Reject(capacity) and are closed.
	MaxSessions int
	// OnInput receives input events from any session, tagged by remote
	// address.
	OnInput func(remote string, in InputPacket)
	// Metrics, when non-nil, receives server telemetry: accepted, rejected
	// and active session counts, plus the sessions' frames and payload
	// bytes sent and a per-frame send-latency histogram. Nil is a no-op.
	Metrics *telemetry.Registry
	// FlightFrames sizes every session's flight recorder (0 picks
	// frametrace.DefaultFrames). Every session records its frames: the
	// recorder's miss streak and latency window are what admission, the
	// shed ladder and the diag watchdog read. The server keeps the
	// recorders of live sessions plus the most recently finished ones, and
	// WriteFlight merges their windows into one Chrome trace (one Perfetto
	// process per session) — the MultiServer itself is the
	// telemetry.FlightDumper behind /debug/flight. Session streak gauges
	// are aggregated max-across-sessions through a frametrace.StreakSet.
	FlightFrames int
	// FlightRetain overrides how many finished sessions' recorders stay
	// dumpable (default 4). Tests that read every session's window after
	// the run raise it.
	FlightRetain int
	// Deadline overrides the per-frame budget the session recorders (and
	// therefore admission and shedding) account against (default
	// frametrace.DefaultDeadline, the 60 FPS frame time).
	Deadline time.Duration
	// Sched, when non-nil, gives every session its own scheduler client
	// (Normal priority), threaded into SchedAware sources — the
	// isolation that makes shedding's priority demotion meaningful.
	Sched *parallel.Scheduler
	// Admission, when non-nil, enables SLO-keyed admission control.
	Admission *AdmissionPolicy
	// Shed, when non-nil, enables the per-session shed ladder, triggered
	// by the session recorder's miss streak.
	Shed *ShedPolicy
	// IdleTimeout is the read-liveness bound: a connection that sends
	// nothing — not its Hello, not even a heartbeat — for this long is
	// reaped as dead. Slow-but-alive peers stay on the shed ladder. 0 picks
	// DefaultIdleTimeout; negative disables.
	IdleTimeout time.Duration
	// Log receives the server's structured log lines (session lifecycle,
	// shed transitions, rejects, reaps), each tagged with session / frame /
	// flight fields. Nil uses slog.Default().
	Log *slog.Logger
	// Diag, when non-nil, is the SLO watchdog: sustained deadline-miss
	// streaks, shed-ladder escalations, admission rejects and session reaps
	// each ask it to capture a bundle (goroutine dump + flight trace + log
	// ring + the CPU profile of the second after); its cooldown turns those
	// asks into at most one bundle per incident.
	Diag *diag.Diag

	mu       sync.Mutex
	sessions []*session            // live and retired, in start order
	pending  map[net.Conn]struct{} // accepted, Hello not yet read
	streaks  *frametrace.StreakSet
	resumes  map[string]string // resume token -> original session identity
	resumeQ  []string          // token issue order, for cap eviction
	listener net.Listener
	closed   atomic.Bool // set under mu by Shutdown; frame loops read it without
	serveWG  sync.WaitGroup
	ctrs     serverCounters
}

// maxResumeRecords caps the token -> identity correlation table; the
// oldest records are evicted first. A client replaying a token the table no
// longer holds is served as usual and keeps its token, which is then
// recorded against its new connection's identity.
const maxResumeRecords = 1024

// recordResume remembers which session identity a resume token belongs to.
func (s *MultiServer) recordResume(token, identity string) {
	if token == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.resumes == nil {
		s.resumes = make(map[string]string)
	}
	if _, ok := s.resumes[token]; !ok {
		s.resumeQ = append(s.resumeQ, token)
	}
	s.resumes[token] = identity
	for len(s.resumeQ) > maxResumeRecords {
		delete(s.resumes, s.resumeQ[0])
		s.resumeQ = s.resumeQ[1:]
	}
}

// resumeIdentity resolves a replayed resume token to the identity of the
// session that was issued it, correlating a reconnecting client's flight
// records and per-session metrics across connections.
func (s *MultiServer) resumeIdentity(token string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.resumes[token]
	return id, ok
}

// log is the logger the server writes to: Log, or slog's default.
func (s *MultiServer) log() *slog.Logger {
	if s.Log == nil {
		return slog.Default()
	}
	return s.Log
}

// idleTimeout resolves the configured read-liveness bound (0 = disabled).
func (s *MultiServer) idleTimeout() time.Duration {
	if s.IdleTimeout < 0 {
		return 0
	}
	if s.IdleTimeout == 0 {
		return DefaultIdleTimeout
	}
	return s.IdleTimeout
}

// shedPolicy is the shed ladder's policy with its defaults. The watchdog's
// miss-streak threshold follows its EscalateStreak, with or without a
// ladder.
func (s *MultiServer) shedPolicy() ShedPolicy {
	var p ShedPolicy
	if s.Shed != nil {
		p = *s.Shed
	}
	return p.withDefaults()
}

// serverCounters holds the server's telemetry handles, resolved once in
// start so per-connection work never touches the registry map more than a
// handful of times. All fields are nil-safe no-ops without a registry.
type serverCounters struct {
	accepted, rejected        *telemetry.Counter
	rejectedCap, rejectedBusy *telemetry.Counter
	active                    *telemetry.Gauge
	escalations, recoveries   *telemetry.Counter // with a ShedPolicy only
}

// session is the one record of a MultiServer session. It is made when the
// session's Hello has been read and takes a slot under the session cap;
// once the session ends it stays, retired, while retention keeps its
// flight window dumpable. A session refused before its first frame leaves
// no record.
type session struct {
	srv *MultiServer
	// identity names the session's flight window and per-session metrics:
	// the remote address, or for a resumed client the identity of the
	// session it resumed. Successive sessions of one client share it and
	// may overlap — a redial can land while its predecessor is still live.
	identity string
	remote   string // this connection's address
	conn     net.Conn
	client   *parallel.Client // nil without MultiServer.Sched
	rec      *frametrace.Recorder
	shed     atomic.Int32 // shed-ladder level (ShedNone without a ShedPolicy)
	live     bool         // guarded by srv.mu
	// finished marks the stream as sent in full, Bye included
	// (control.finish): the session only waits for its client to hang up.
	finished atomic.Bool

	// The shed ladder's state (evaluate), frame loop only.
	target Shedder // the source, when it can degrade
	arm    int64   // next escalation requires a streak >= arm
	clean  int64   // consecutive on-budget frames at the current level

	// The backchannel's state (handleStats). The control loop can outlive
	// the frame loop briefly, hence the mutex; closeStats ends it.
	statsMu                 sync.Mutex
	statsClosed, statsSeen  bool
	lastDropped, lastMisses uint32
}

// retiredFlights bounds how many finished sessions' recorders stay
// dumpable after their connection closes (unless FlightRetain raises it).
const retiredFlights = 4

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("stream: server closed")

// Serve accepts connections from l until the listener fails or Shutdown is
// called. It blocks; run it in a goroutine and use Shutdown to stop. Each
// connection must open with a Hello, which starts its game session.
func (s *MultiServer) Serve(l net.Listener) error {
	if s.NewSource == nil {
		return errors.New("stream: MultiServer needs a source factory")
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listener = l
	s.mu.Unlock()
	s.start()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed.Load()
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		// The conn is tracked as pending until its Hello is read, so
		// Shutdown can unblock a handshake that never arrives.
		s.pending[conn] = struct{}{}
		s.mu.Unlock()
		s.serveWG.Add(1)
		go func(conn net.Conn) {
			defer s.serveWG.Done()
			s.serveConn(conn) // per-session errors end that session only
		}(conn)
	}
}

// start readies what every connection shares: the streak aggregation, the
// pending set and the server's telemetry. The shed gauge and the counters
// are registered outside s.mu: the registry calls maxShedLevel, which takes
// s.mu, under the registry's own lock.
func (s *MultiServer) start() {
	s.mu.Lock()
	if s.streaks == nil {
		s.streaks = frametrace.NewStreakSet(s.Metrics)
	}
	if s.pending == nil {
		s.pending = make(map[net.Conn]struct{})
	}
	s.mu.Unlock()
	s.Metrics.GaugeFunc("stream_shed_level_max", s.maxShedLevel)
	s.ctrs = serverCounters{
		accepted:     s.Metrics.Counter("stream_sessions_accepted_total"),
		rejected:     s.Metrics.Counter("stream_sessions_rejected_total"),
		rejectedCap:  s.Metrics.Counter("stream_sessions_rejected_capacity_total"),
		rejectedBusy: s.Metrics.Counter("stream_sessions_rejected_busy_total"),
		active:       s.Metrics.Gauge("stream_sessions_active"),
	}
	if s.Shed != nil {
		s.ctrs.escalations = s.Metrics.Counter("stream_shed_escalations_total")
		s.ctrs.recoveries = s.Metrics.Counter("stream_shed_recoveries_total")
	}
}

// serveConn runs one connection to its end, closes it and returns why the
// session ended. It reads the connection's first message: a Hello of this
// protocol version starts a game session, and one that does not parse or
// announces another version is rejected with the reason; anything else —
// an unknown type such as the Subscribe of protocol version 4 included —
// closes the connection. None of these spends a session slot or a resume
// token.
func (s *MultiServer) serveConn(conn net.Conn) error {
	msg, err := readOpening(conn, s.idleTimeout())
	tHello := time.Now() // T1 of the client's Cristian offset estimate
	s.mu.Lock()
	delete(s.pending, conn)
	closed := s.closed.Load()
	s.mu.Unlock()
	remote := conn.RemoteAddr().String()
	switch {
	case closed:
		conn.Close()
		return ErrServerClosed
	case badHello(msg, err): // refused below, with the parse reason
	case err != nil:
		conn.Close()
		return fmt.Errorf("stream: reading hello: %w", err)
	case msg.Type != MsgHello:
		s.log().Warn("stream: bad opening message, want hello", "remote", remote, "type", msg.Type)
		conn.Close()
		return fmt.Errorf("%w: expected hello, got %v", ErrProtocol, msg.Type)
	default:
		err = checkVersion(msg.Hello.Version)
	}
	if err != nil {
		s.ctrs.rejected.Inc()
		s.log().Warn("stream: rejecting session", "session", remote, "reason", err)
		s.rejectConn(conn, Reject{Code: RejectBadHello, Reason: err.Error()})
		return fmt.Errorf("stream: rejecting client: %w", err) // ErrProtocol for a Hello that did not parse
	}
	return s.servePlayer(conn, remote, *msg.Hello, tHello)
}

// busyRetryAfter is the server-suggested redial delay carried in
// capacity/busy rejects: long enough for a session to drain or the SLO
// window to recover, short enough that a waiting client feels responsive.
const busyRetryAfter = 2 * time.Second

// rejectConn tells the client why it is being refused, then closes, and
// returns the refusal as the session's error. The caller has already read
// the client's opening message, so the reject is the only unread data in
// flight when the connection closes. The write is bounded (controlWrite)
// so a peer that never reads cannot wedge the goroutine.
func (s *MultiServer) rejectConn(conn net.Conn, rej Reject) error {
	defer conn.Close()
	controlWrite(conn, s.Metrics, s.log(), conn.RemoteAddr().String(), "reject", func() error {
		return WriteReject(conn, rej)
	})
	return fmt.Errorf("stream: rejecting client: %s", rej.Reason)
}

// servePlayer runs a game session whose Hello has been read and vetted:
// resume-token identity, session cap, admission control, then the session.
func (s *MultiServer) servePlayer(conn net.Conn, remote string, hello Hello, tHello time.Time) error {
	max := s.MaxSessions
	if max <= 0 {
		max = 16
	}
	// Every session gets a resume token: a reconnecting client replays it
	// to keep its identity (flight records, per-session metrics); the
	// session itself is new and starts at a keyframe. A replayed token is
	// re-issued unchanged so the identity stays stable across any number of
	// drops.
	token := hello.ResumeToken
	identity, resumed := s.resumeIdentity(token)
	if !resumed {
		identity = remote
	}
	sess := s.newSession(conn, remote, identity)
	s.mu.Lock()
	closed, overCap := s.closed.Load(), len(s.liveSessions()) >= max
	if !closed && !overCap {
		s.sessions = append(s.sessions, sess)
	}
	s.mu.Unlock()
	if closed || overCap {
		s.drop(sess)
	}
	if closed {
		conn.Close()
		return ErrServerClosed
	}
	if overCap {
		s.ctrs.rejected.Inc()
		s.ctrs.rejectedCap.Inc()
		s.log().Warn("stream: rejecting session: capacity", "session", remote, "limit", max)
		return s.rejectConn(conn, Reject{
			Code:         RejectCapacity,
			Reason:       fmt.Sprintf("session limit %d reached", max),
			RetryAfterMs: uint32(busyRetryAfter.Milliseconds()),
		})
	}
	if s.Admission != nil {
		if p99, samples, deadline, ok := s.admit(); !ok {
			s.drop(sess)
			s.ctrs.rejected.Inc()
			s.ctrs.rejectedBusy.Inc()
			s.log().Warn("stream: rejecting session: no SLO headroom",
				"session", remote, "p99", p99, "samples", samples, "deadline", deadline)
			// An admission reject means the fleet is already missing its tail
			// SLO — exactly the moment a postmortem bundle is worth freezing.
			s.Diag.Trigger("admission_reject",
				"session", remote, "p99", p99, "samples", samples, "deadline", deadline)
			return s.rejectConn(conn, Reject{
				Code:         RejectBusy,
				Reason:       fmt.Sprintf("no SLO headroom: p99 %v", p99.Round(time.Microsecond)),
				RetryAfterMs: uint32(busyRetryAfter.Milliseconds()),
			})
		}
	}
	if resumed {
		s.log().Info("stream: session resumed", "remote", remote, "session", identity)
	} else if token == "" {
		token = newResumeToken()
	}
	s.recordResume(token, identity)
	s.ctrs.accepted.Inc()
	s.ctrs.active.Add(1)
	defer s.ctrs.active.Add(-1)
	return sess.run(hello, tHello, token)
}

// newSession builds the live record of a session on conn, its flight
// recorder attached. Per-session recorders keep frame IDs independent
// across concurrent sessions; they share the server's Metrics registry, so
// miss counters aggregate, and the streak gauges go through the server's
// StreakSet (max across live sessions) instead of racing last-writer-wins.
func (s *MultiServer) newSession(conn net.Conn, remote, identity string) *session {
	sess := &session{srv: s, identity: identity, remote: remote, conn: conn, live: true}
	if s.Sched != nil {
		sess.client = s.Sched.NewClient(parallel.ClientConfig{Name: remote})
	}
	sess.rec = frametrace.New(frametrace.Config{Frames: s.FlightFrames, Deadline: s.Deadline, Metrics: s.Metrics, Streaks: s.streaks})
	return sess
}

// liveSessions returns the live records; the caller holds s.mu.
func (s *MultiServer) liveSessions() []*session {
	var live []*session
	for _, sess := range s.sessions {
		if sess.live {
			live = append(live, sess)
		}
	}
	return live
}

// admit computes the aggregate windowed p99 across live session recorders
// and compares its slack against the admission policy. Returns the p99,
// the sample count, the deadline accounted against, and the verdict.
func (s *MultiServer) admit() (p99 time.Duration, samples int, deadline time.Duration, ok bool) {
	pol := s.Admission.withDefaults()
	s.mu.Lock()
	live := s.liveSessions()
	s.mu.Unlock()
	var lats []time.Duration
	for _, sess := range live {
		lats = sess.rec.WindowLatencies(lats)
	}
	deadline = s.Deadline
	if deadline <= 0 {
		deadline = frametrace.DefaultDeadline
	}
	if len(lats) < pol.MinSamples {
		return 0, len(lats), deadline, true // cold server: no evidence to reject on
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 = lats[(len(lats)*99+99)/100-1]
	return p99, len(lats), deadline, deadline-p99 >= pol.MinSlack
}

// maxShedLevel reports the highest shed-ladder level among live sessions —
// the stream_shed_level_max gauge.
func (s *MultiServer) maxShedLevel() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max int64
	for _, sess := range s.liveSessions() {
		if v := int64(sess.shed.Load()); v > max {
			max = v
		}
	}
	return max
}

// retire marks a finished session's record: it leaves the live set and
// the streak aggregation (so a dead session's final streak stops
// dominating the gauge), and its flight window stays dumpable until more
// than FlightRetain (default 4) later-finished sessions push it out. It
// reports whether a live session still carries sess's identity.
func (s *MultiServer) retire(sess *session) (shared bool) {
	s.streaks.Remove(sess.rec)
	retain := s.FlightRetain
	if retain <= 0 {
		retain = retiredFlights
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess.live = false
	retired := 0
	for i := len(s.sessions) - 1; i >= 0; i-- {
		switch r := s.sessions[i]; {
		case r.live:
			shared = shared || r.identity == sess.identity
		case retired == retain:
			s.sessions = slices.Delete(s.sessions, i, i+1)
		default:
			retired++
		}
	}
	return shared
}

// drop removes the record of a session refused before its first frame.
func (s *MultiServer) drop(sess *session) {
	s.streaks.Remove(sess.rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := slices.Index(s.sessions, sess); i >= 0 {
		s.sessions = slices.Delete(s.sessions, i, i+1)
	}
}

// perSessionGauges are the backchannel's gauge-name prefixes, each suffixed
// with the sanitised session identity. The identity's last session to end
// unregisters all of them — leaving them behind grew /metrics without
// bound under session churn (every fresh connection has a fresh ephemeral
// port, hence a fresh suffix).
var perSessionGauges = []string{
	"stream_client_age_p50_us_",
	"stream_client_age_p99_us_",
	"stream_client_decode_p99_us_",
	"stream_client_sr_p99_us_",
}

// closeStats drops any late stats report still in flight on the control
// loop and, unless a live session shares the identity (a resumed client's
// redial, which writes the same gauges), unregisters the per-session
// gauges.
func (sess *session) closeStats(shared bool) {
	sess.statsMu.Lock()
	defer sess.statsMu.Unlock()
	sess.statsClosed = true
	if shared {
		return
	}
	suffix := metricLabel(sess.identity)
	for _, name := range perSessionGauges {
		sess.srv.Metrics.Unregister(name + suffix)
	}
}

// handleStats folds one backchannel Stats report (DESIGN.md §13) into the
// server's telemetry and the session's flight recorder: per-session gauges
// expose the client-observed e2e/decode/SR percentiles on /metrics, the
// cumulative drop/miss counts feed aggregate counters by delta, and the
// recorder pins the report to the frame in flight so a server-side dump
// shows what the client was experiencing.
func (sess *session) handleStats(st StatsPacket) {
	sess.statsMu.Lock()
	defer sess.statsMu.Unlock()
	if sess.statsClosed {
		return
	}
	m, rec := sess.srv.Metrics, sess.rec
	suffix := metricLabel(sess.identity)
	m.Gauge("stream_client_age_p50_us_" + suffix).Set(st.AgeP50.Microseconds())
	m.Gauge("stream_client_age_p99_us_" + suffix).Set(st.AgeP99.Microseconds())
	m.Gauge("stream_client_decode_p99_us_" + suffix).Set(st.DecodeP99.Microseconds())
	m.Gauge("stream_client_sr_p99_us_" + suffix).Set(st.SRP99.Microseconds())
	// Dropped/Misses are cumulative on the wire; counters get the deltas
	// (guarded against a client restart resetting its counters).
	if st.Dropped >= sess.lastDropped {
		m.Counter("stream_client_dropped_total").Add(int64(st.Dropped - sess.lastDropped))
	}
	sess.lastDropped = st.Dropped
	if st.Misses >= sess.lastMisses {
		m.Counter("stream_client_deadline_misses_total").Add(int64(st.Misses - sess.lastMisses))
	}
	sess.lastMisses = st.Misses
	rec.SetClientStats(rec.LastID(), st.AgeP99, st.Dropped, st.Misses)
	// Counted once folded in: a reader that sees the count sees the gauges.
	m.Counter("stream_client_stats_total").Inc()
	if !sess.statsSeen {
		sess.statsSeen = true
		sess.srv.log().Info("stream: backchannel up", "session", sess.identity,
			"age_p50", st.AgeP50.Round(time.Microsecond), "age_p99", st.AgeP99.Round(time.Microsecond),
			"decode_p99", st.DecodeP99.Round(time.Microsecond), "sr_p99", st.SRP99.Round(time.Microsecond),
			"frames", st.WindowFrames)
	}
}

// metricLabel sanitises a remote address into a metric-name suffix
// ([a-zA-Z0-9_] only) — the registry has flat names, not labels.
func metricLabel(remote string) string {
	b := []byte(remote)
	for i, c := range b {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			b[i] = '_'
		}
	}
	return string(b)
}

// Flights copies every retained session's flight window, one dump per
// session, in start order.
func (s *MultiServer) Flights() []frametrace.NamedDump {
	s.mu.Lock()
	defer s.mu.Unlock()
	dumps := make([]frametrace.NamedDump, 0, len(s.sessions))
	for _, sess := range s.sessions {
		name := sess.identity
		if !sess.live {
			name += " (closed)"
		}
		dumps = append(dumps, frametrace.NamedDump{Name: name, Dump: sess.rec.Snapshot()})
	}
	return dumps
}

// WriteFlight merges every retained session's flight window into one
// Chrome trace-event JSON payload, one Perfetto process per session —
// the /debug/flight implementation (telemetry.FlightDumper).
func (s *MultiServer) WriteFlight(w io.Writer) error {
	return frametrace.WriteChromeTraces(w, s.Flights())
}

// Shutdown stops accepting and ends every live session as a stream sent in
// full ends: its frame loop stops after the frame in flight, sends a Bye
// behind it and waits for the client to hang up (control.finish). Shutdown
// returns once every session has ended, or at ctx's end, when it closes
// the connections still open. It returns ctx's error only if one of those
// sessions had not sent its Bye: a source or a send that had not returned.
func (s *MultiServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed.Store(true)
	if s.listener != nil {
		s.listener.Close()
	}
	for conn := range s.pending {
		conn.Close()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.serveWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	var err error
	s.mu.Lock()
	for _, sess := range s.liveSessions() {
		if !sess.finished.Load() {
			err = ctx.Err()
		}
		sess.conn.Close()
	}
	s.mu.Unlock()
	return err
}
