package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/telemetry"
)

// counterOf returns the named counter's value in s (0 when absent).
func counterOf(s telemetry.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// gaugeOf returns the named gauge's value in s (0 when absent).
func gaugeOf(s telemetry.Snapshot, name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// countingSource serves n tiny frames.
type countingSource struct{ n int }

func (c *countingSource) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	if i >= c.n {
		return nil, false, frame.Rect{}, io.EOF
	}
	return []byte{byte(i)}, i == 0, frame.Rect{W: 4, H: 4}, nil
}

func startMulti(t *testing.T, srv *MultiServer) (addr string, done chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done = make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	return l.Addr().String(), done
}

// sessionCount returns the number of live sessions.
func (s *MultiServer) sessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.liveSessions())
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func runClient(t *testing.T, addr, name string) int {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := NewClient(conn)
	if _, err := c.Handshake(Hello{Device: name, RoIWindow: 8, Scale: 2}); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := c.RecvFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	return n
}

func TestMultiServerConcurrentClients(t *testing.T) {
	srv := &MultiServer{
		Accept:    Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		NewSource: func(Hello) (FrameSource, error) { return &countingSource{n: 5}, nil },
	}
	addr, done := startMulti(t, srv)

	var wg sync.WaitGroup
	counts := make([]int, 4)
	for i := range counts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			counts[i] = runClient(t, addr, "client")
		}(i)
	}
	wg.Wait()
	for i, n := range counts {
		if n != 5 {
			t.Errorf("client %d got %d frames, want 5", i, n)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve returned %v, want server-closed", err)
	}
	if srv.sessionCount() != 0 {
		t.Errorf("%d sessions left after shutdown", srv.sessionCount())
	}
}

func TestMultiServerRequiresFactory(t *testing.T) {
	srv := &MultiServer{Accept: Accept{Width: 8, Height: 8, GOPSize: 1, QStep: 1}}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := srv.Serve(l); err == nil {
		t.Fatal("missing factory should fail")
	}
}

func TestMultiServerRejectsBadHello(t *testing.T) {
	srv := &MultiServer{
		Accept: Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		NewSource: func(h Hello) (FrameSource, error) {
			if h.RoIWindow < 16 {
				return nil, errors.New("window too small")
			}
			return &countingSource{n: 1}, nil
		},
	}
	addr, done := startMulti(t, srv)
	defer func() {
		srv.Shutdown(context.Background())
		<-done
	}()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := NewClient(conn)
	// The server answers a bad Hello with a protocol-level reject carrying
	// the validation error, so the client knows why it was turned away.
	_, err = c.Handshake(Hello{Device: "tiny", RoIWindow: 8, Scale: 2})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("Handshake error = %v, want *RejectedError", err)
	}
	if rej.Code != RejectBadHello || !strings.Contains(rej.Reason, "window too small") {
		t.Errorf("reject = %+v, want bad-hello with the validation reason", rej)
	}
}

func TestMultiServerInputRouting(t *testing.T) {
	type tagged struct {
		remote string
		seq    uint32
	}
	inputs := make(chan tagged, 8)
	gotInput := make(chan struct{})
	var once sync.Once
	srv := &MultiServer{
		Accept: Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		// The session stays open until the input has been routed, so the
		// client's SendInput cannot race the server's hang-up.
		NewSource: func(Hello) (FrameSource, error) {
			return frameFunc(func(i int) ([]byte, bool, frame.Rect, error) {
				if i == 0 {
					return []byte{0}, true, frame.Rect{}, nil
				}
				<-gotInput
				return nil, false, frame.Rect{}, io.EOF
			}), nil
		},
		OnInput: func(remote string, in InputPacket) {
			inputs <- tagged{remote, in.Seq}
			once.Do(func() { close(gotInput) })
		},
	}
	addr, done := startMulti(t, srv)
	defer func() {
		srv.Shutdown(context.Background())
		<-done
	}()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := NewClient(conn)
	if _, err := c.Handshake(Hello{Device: "x", RoIWindow: 8, Scale: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendInput(InputPacket{Seq: 77}); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := c.RecvFrame(); err != nil {
			break
		}
	}
	select {
	case in := <-inputs:
		if in.seq != 77 || in.remote == "" {
			t.Errorf("input = %+v", in)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("input never routed")
	}
}

func TestMultiServerSessionCap(t *testing.T) {
	release := make(chan struct{})
	reg := telemetry.NewRegistry()
	srv := &MultiServer{
		Accept:      Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		MaxSessions: 1,
		Metrics:     reg,
		NewSource: func(Hello) (FrameSource, error) {
			return frameFunc(func(i int) ([]byte, bool, frame.Rect, error) {
				if i == 0 {
					return []byte{0}, true, frame.Rect{}, nil
				}
				<-release // hold the session open
				return nil, false, frame.Rect{}, io.EOF
			}), nil
		},
	}
	addr, done := startMulti(t, srv)
	defer func() {
		close(release)
		srv.Shutdown(context.Background())
		<-done
	}()

	// First client occupies the only slot.
	conn1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn1.Close()
	c1 := NewClient(conn1)
	if _, err := c1.Handshake(Hello{Device: "a", RoIWindow: 8, Scale: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.RecvFrame(); err != nil {
		t.Fatal(err)
	}

	// Second client is turned away with a protocol-level capacity reject.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	c2 := NewClient(conn2)
	errc := make(chan error, 1)
	go func() {
		_, err := c2.Handshake(Hello{Device: "b", RoIWindow: 8, Scale: 2})
		errc <- err
	}()
	select {
	case err := <-errc:
		var rej *RejectedError
		if !errors.As(err, &rej) {
			t.Fatalf("second session got %v, want *RejectedError", err)
		}
		if rej.Code != RejectCapacity || !strings.Contains(rej.Reason, "session limit") {
			t.Errorf("reject = %+v, want capacity with the limit in the reason", rej)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("second client hung instead of being rejected")
	}

	// The rejection is counted, not silent.
	s := reg.Snapshot()
	if got := counterOf(s, "stream_sessions_rejected_total"); got != 1 {
		t.Errorf("rejected_total = %d, want 1", got)
	}
	if got := counterOf(s, "stream_sessions_rejected_capacity_total"); got != 1 {
		t.Errorf("rejected_capacity_total = %d, want 1", got)
	}
	if got := counterOf(s, "stream_sessions_accepted_total"); got != 1 {
		t.Errorf("accepted_total = %d, want 1", got)
	}
	if got := gaugeOf(s, "stream_sessions_active"); got != 1 {
		t.Errorf("sessions_active = %d, want 1 while the slot is held", got)
	}
}

func TestMultiServerSessionTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	const nFrames = 5
	srv := &MultiServer{
		Accept:    Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		Metrics:   reg,
		NewSource: func(Hello) (FrameSource, error) { return &countingSource{n: nFrames}, nil },
	}
	addr, done := startMulti(t, srv)
	if got := runClient(t, addr, "client"); got != nFrames {
		t.Fatalf("client got %d frames", got)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done

	s := reg.Snapshot()
	if got := counterOf(s, "stream_frames_sent_total"); got != nFrames {
		t.Errorf("frames_sent_total = %d, want %d", got, nFrames)
	}
	// countingSource payloads are 1 byte each.
	if got := counterOf(s, "stream_bytes_sent_total"); got != nFrames {
		t.Errorf("bytes_sent_total = %d, want %d", got, nFrames)
	}
	h, ok := s.Histogram("stream_frame_send_seconds")
	if !ok || h.Count != nFrames {
		t.Errorf("frame_send_seconds count = %d (present %v), want %d", h.Count, ok, nFrames)
	}
	if got := gaugeOf(s, "stream_sessions_active"); got != 0 {
		t.Errorf("sessions_active = %d after shutdown, want 0", got)
	}
}

// TestMultiServerFlightRecorders asserts the per-session flight wiring:
// with FlightFrames on, every session records its sends (span, payload
// size, RoI, deadline verdict) and WriteFlight merges all retained windows
// into one parseable multi-process Chrome trace.
func TestMultiServerFlightRecorders(t *testing.T) {
	reg := telemetry.NewRegistry()
	const nFrames = 5
	srv := &MultiServer{
		Accept:       Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		Metrics:      reg,
		FlightFrames: 8,
		NewSource:    func(Hello) (FrameSource, error) { return &countingSource{n: nFrames}, nil },
	}
	addr, done := startMulti(t, srv)
	for i := 0; i < 2; i++ {
		if got := runClient(t, addr, "client"); got != nFrames {
			t.Fatalf("client got %d frames", got)
		}
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done

	var buf bytes.Buffer
	if err := srv.WriteFlight(&buf); err != nil {
		t.Fatal(err)
	}
	dumps, err := frametrace.ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 2 {
		t.Fatalf("flight dump has %d sessions, want 2", len(dumps))
	}
	for _, nd := range dumps {
		if !strings.Contains(nd.Name, "(closed)") {
			t.Errorf("finished session %q not marked closed", nd.Name)
		}
		if len(nd.Dump.Frames) != nFrames {
			t.Fatalf("session %q recorded %d frames, want %d", nd.Name, len(nd.Dump.Frames), nFrames)
		}
		for _, f := range nd.Dump.Frames {
			if len(f.Spans) != 2 || f.Spans[0].Lane != "source" || f.Spans[1].Lane != "send" {
				t.Errorf("frame %d spans = %+v, want source+send spans", f.ID, f.Spans)
			}
			// countingSource payloads are 1 byte, RoI 4x4.
			if f.CodedBytes != 1 || f.RoI.W != 4 || f.RoI.H != 4 {
				t.Errorf("frame %d attributes = %+v", f.ID, f)
			}
			if f.Latency <= 0 {
				t.Errorf("frame %d send not accounted against the deadline", f.ID)
			}
		}
	}
	// The sessions' SLO instruments share the server registry.
	if got := counterOf(reg.Snapshot(), "frametrace_frames_total"); got != 2*nFrames {
		t.Errorf("frametrace_frames_total = %d, want %d", got, 2*nFrames)
	}
}

// TestMultiServerFlightRetention asserts finished sessions' recorders stay
// dumpable only up to the retention cap.
func TestMultiServerFlightRetention(t *testing.T) {
	srv := &MultiServer{
		Accept:       Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		FlightFrames: 4,
		NewSource:    func(Hello) (FrameSource, error) { return &countingSource{n: 1}, nil },
	}
	addr, done := startMulti(t, srv)
	const sessions = retiredFlights + 4
	for i := 0; i < sessions; i++ {
		runClient(t, addr, "client")
		// A session retires its recorder once it has seen the client hang
		// up; the next one must not start (and prune) before that.
		waitFor(t, "session end", func() bool { return srv.sessionCount() == 0 })
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done

	srv.mu.Lock()
	kept := len(srv.sessions)
	srv.mu.Unlock()
	// Pruning runs as each session retires, so the cap holds exactly.
	if kept != retiredFlights {
		t.Errorf("%d recorders retained after %d sessions, cap is %d", kept, sessions, retiredFlights)
	}
	var buf bytes.Buffer
	if err := srv.WriteFlight(&buf); err != nil {
		t.Fatal(err)
	}
	if dumps, err := frametrace.ParseChromeTrace(&buf); err != nil || len(dumps) != kept {
		t.Errorf("dump has %d sessions (err %v), want %d", len(dumps), err, kept)
	}
}

// peerConn names the peer of a pipe end (net.Pipe calls every peer "pipe").
type peerConn struct {
	net.Conn
	peer string
}

func (c peerConn) RemoteAddr() net.Addr { return &net.UnixAddr{Name: c.peer, Net: "pipe"} }

// TestServeFlightAndSlowSendLog asserts the session send loop records into
// the session's recorder and logs send-latency outliers with the flight
// frame ID (the log line is the server-side correlation handle).
func TestServeFlightAndSlowSendLog(t *testing.T) {
	lg := logx.NewRing(io.Discard)
	// The slow-send limiter buckets are keyed by remote and live for the
	// whole process; a unique remote per run keeps -count=N runs fresh.
	remote := fmt.Sprintf("test-peer-%d", time.Now().UnixNano())

	server, client := net.Pipe()
	defer client.Close()
	srv := &MultiServer{
		Accept:       Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		NewSource:    oneSource(&countingSource{n: 3}),
		FlightFrames: 8,
		Log:          slog.New(lg),
	}
	done := serveOne(peerConn{server, remote}, srv)
	c := NewClient(client)
	if _, err := c.Handshake(Hello{Device: "d", RoIWindow: 8, Scale: 2}); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		// A pipe write waits for its read: holding each read back past
		// slowSend makes every send an outlier.
		time.Sleep(slowSend + 10*time.Millisecond)
		if _, err := c.RecvFrame(); err != nil {
			break
		}
		n++
	}
	if n != 3 {
		t.Fatalf("client got %d frames", n)
	}
	_ = c.Bye()
	<-done
	d := lastRecorder(srv).Snapshot()
	if len(d.Frames) != 3 {
		t.Fatalf("recorder holds %d frames, want 3", len(d.Frames))
	}
	var logs strings.Builder
	for _, e := range lg.Recent(0) {
		logs.WriteString(e.Line)
		logs.WriteByte('\n')
	}
	for _, f := range d.Frames {
		want := fmt.Sprintf("flight=%d", f.ID)
		if !strings.Contains(logs.String(), want) {
			t.Errorf("slow-send log missing %q:\n%s", want, logs.String())
		}
	}
	if !strings.Contains(logs.String(), "slow send session="+remote) {
		t.Errorf("slow-send log missing the remote tag:\n%s", logs.String())
	}
}

// TestMultiServerShutdownWaitsForSessions: Shutdown must block on in-flight
// session goroutines (or the context), not return immediately.
func TestMultiServerShutdownWaitsForSessions(t *testing.T) {
	release := make(chan struct{})
	inSession := make(chan struct{})
	var once sync.Once
	srv := &MultiServer{
		Accept: Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		NewSource: func(Hello) (FrameSource, error) {
			return frameFunc(func(i int) ([]byte, bool, frame.Rect, error) {
				if i == 0 {
					return []byte{0}, true, frame.Rect{}, nil
				}
				once.Do(func() { close(inSession) })
				<-release // stuck in the source: ignores the closed conn
				return nil, false, frame.Rect{}, io.EOF
			}), nil
		},
	}
	addr, done := startMulti(t, srv)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := NewClient(conn)
	if _, err := c.Handshake(Hello{Device: "a", RoIWindow: 8, Scale: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecvFrame(); err != nil {
		t.Fatal(err)
	}
	<-inSession

	// The session goroutine is wedged in NextFrame, so a bounded Shutdown
	// must report the deadline rather than pretending the drain finished.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with a wedged session = %v, want deadline exceeded", err)
	}

	close(release)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown after release = %v", err)
	}
	<-done
	if srv.sessionCount() != 0 {
		t.Errorf("%d sessions left after shutdown", srv.sessionCount())
	}
}

// TestMultiServerAdmissionControl: once the live sessions' windowed p99
// leaves less than MinSlack of headroom, new sessions get a Busy reject.
func TestMultiServerAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	reg := telemetry.NewRegistry()
	srv := &MultiServer{
		Accept:       Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		Metrics:      reg,
		FlightFrames: 8,
		// MinSlack of an hour cannot be met, so the policy rejects as soon
		// as it has MinSamples of evidence — deterministic without having
		// to manufacture real deadline misses.
		Admission: &AdmissionPolicy{MinSlack: time.Hour, MinSamples: 2},
		NewSource: func(Hello) (FrameSource, error) {
			return frameFunc(func(i int) ([]byte, bool, frame.Rect, error) {
				if i < 5 {
					return []byte{byte(i)}, i == 0, frame.Rect{}, nil
				}
				<-release // hold the session (and its window) live
				return nil, false, frame.Rect{}, io.EOF
			}), nil
		},
	}
	addr, done := startMulti(t, srv)
	defer func() {
		close(release)
		srv.Shutdown(context.Background())
		<-done
	}()

	// First client is admitted cold (no evidence yet) and fills the window.
	conn1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn1.Close()
	c1 := NewClient(conn1)
	if _, err := c1.Handshake(Hello{Device: "a", RoIWindow: 8, Scale: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c1.RecvFrame(); err != nil {
			t.Fatal(err)
		}
	}

	// Second client is refused with the live p99 in the reason.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	_, err = NewClient(conn2).Handshake(Hello{Device: "b", RoIWindow: 8, Scale: 2})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("Handshake error = %v, want *RejectedError", err)
	}
	if rej.Code != RejectBusy || !strings.Contains(rej.Reason, "no SLO headroom") {
		t.Errorf("reject = %+v, want busy with the headroom reason", rej)
	}
	if got := counterOf(reg.Snapshot(), "stream_sessions_rejected_busy_total"); got != 1 {
		t.Errorf("rejected_busy_total = %d, want 1", got)
	}
}

// shedProbe is a FrameSource implementing both optional capabilities: it
// records shed-level transitions, the session scheduler client and that
// client's class at each frame asked for while demoted, and sleeps past the
// deadline for the first slowFrames frames.
type shedProbe struct {
	mu         sync.Mutex
	levels     []int
	demoted    []parallel.Priority
	sched      *parallel.Client
	slowFrames int
	sleep      time.Duration
	frames     int
}

func (p *shedProbe) SetShedLevel(level int) {
	p.mu.Lock()
	p.levels = append(p.levels, level)
	p.mu.Unlock()
}

func (p *shedProbe) SetSched(c *parallel.Client) { p.sched = c }

func (p *shedProbe) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	if i >= p.frames {
		return nil, false, frame.Rect{}, io.EOF
	}
	p.mu.Lock()
	if p.sched != nil && len(p.levels) > 0 && p.levels[len(p.levels)-1] >= ShedDemoted {
		p.demoted = append(p.demoted, p.sched.Stats().Priority)
	}
	p.mu.Unlock()
	if i < p.slowFrames {
		time.Sleep(p.sleep)
	}
	return []byte{byte(i)}, i == 0, frame.Rect{}, nil
}

// TestMultiServerShedLadder drives a session past its deadline until the
// shed ladder climbs to priority demotion, then lets it recover and checks
// the ladder descends.
func TestMultiServerShedLadder(t *testing.T) {
	probe := &shedProbe{slowFrames: 8, sleep: 3 * time.Millisecond, frames: 16}
	reg := telemetry.NewRegistry()
	sched := parallel.NewScheduler(2)
	srv := &MultiServer{
		Accept:       Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		Metrics:      reg,
		FlightFrames: 8,
		Deadline:     time.Millisecond, // every slow frame misses
		Sched:        sched,
		Shed:         &ShedPolicy{EscalateStreak: 2, RecoverFrames: 3},
		NewSource:    func(Hello) (FrameSource, error) { return probe, nil },
	}
	addr, done := startMulti(t, srv)
	if got := runClient(t, addr, "shed"); got != probe.frames {
		t.Fatalf("client got %d frames, want %d", got, probe.frames)
	}
	srv.Shutdown(context.Background())
	<-done

	probe.mu.Lock()
	levels := append([]int(nil), probe.levels...)
	demoted := append([]parallel.Priority(nil), probe.demoted...)
	probe.mu.Unlock()
	// Misses at frames 0..7 build streaks 1..8; with EscalateStreak 2 the
	// ladder climbs at streaks 2, 4 and 6. Frames 8..15 are on budget, so
	// after RecoverFrames=3 clean frames it descends at least once.
	want := []int{1, 2, 3}
	if len(levels) < 4 {
		t.Fatalf("shed levels = %v, want 3 escalations then recovery", levels)
	}
	for i, l := range want {
		if levels[i] != l {
			t.Fatalf("shed levels = %v, want prefix %v", levels, want)
		}
	}
	if last := levels[len(levels)-1]; last >= 3 {
		t.Errorf("shed levels = %v, want a recovery below ShedDemoted at the end", levels)
	}
	if probe.sched == nil {
		t.Errorf("SchedAware source never received the session's scheduler client")
	} else if p := probe.sched.Stats().Priority; p != parallel.Normal {
		t.Errorf("session client priority = %v after recovery, want Normal", p)
	}
	if len(demoted) == 0 {
		t.Errorf("no frame was asked for at ShedDemoted (levels %v)", levels)
	}
	for _, p := range demoted {
		if p != parallel.Background {
			t.Errorf("session client priority = %v while demoted, want Background", p)
		}
	}
	s := reg.Snapshot()
	if got := counterOf(s, "stream_shed_escalations_total"); got != 3 {
		t.Errorf("shed_escalations_total = %d, want 3", got)
	}
	if got := counterOf(s, "stream_shed_recoveries_total"); got < 1 {
		t.Errorf("shed_recoveries_total = %d, want >= 1", got)
	}
}

// TestOpeningMessageBounded: a connection's first read is bounded in time
// and in size. A peer that connects and says nothing used to hold a
// goroutine and a pending entry until Shutdown; one that sent a five-byte
// header claiming a body just under MaxBody had 14 MB allocated for it on
// the spot. Both are now dropped, leaving nothing behind.
func TestOpeningMessageBounded(t *testing.T) {
	for _, tc := range []struct {
		name string
		idle time.Duration
		send []byte
	}{
		{"silent", 100 * time.Millisecond, nil},
		// The reaper is off, so only the size bound can end this one.
		{"oversized", -1, []byte{byte(MsgHello), 0x80, 0x80, 0x80, 0x07}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := &MultiServer{
				Accept:      Accept{Width: 64, Height: 36, GOPSize: 4, QStep: 6},
				IdleTimeout: tc.idle,
				NewSource:   func(Hello) (FrameSource, error) { return &countingSource{n: 1}, nil },
			}
			addr, done := startMulti(t, srv)
			defer func() {
				srv.Shutdown(contextWithTimeout(t))
				<-done
			}()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.send); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("the server kept the connection: %v", err)
			}
			srv.mu.Lock()
			pending := len(srv.pending)
			srv.mu.Unlock()
			if pending != 0 || srv.sessionCount() != 0 {
				t.Fatalf("%d pending connections and %d sessions left behind", pending, srv.sessionCount())
			}
		})
	}
}

// TestResumeOverlapRetiresOwnFlight: a redial with the resume token while
// its predecessor is still live — the normal case for a blackholed link
// until IdleTimeout — puts two live recorders under one identity. Each
// session must retire its own: when the predecessor ends, its 3-frame
// recorder is closed and the successor's 1-frame recorder stays live.
func TestResumeOverlapRetiresOwnFlight(t *testing.T) {
	endA, endB := make(chan struct{}), make(chan struct{})
	type plan struct {
		frames int
		end    chan struct{}
	}
	plans := []plan{{3, endA}, {1, endB}}
	var mu sync.Mutex
	srv := &MultiServer{
		Accept:       Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		FlightFrames: 8,
		NewSource: func(Hello) (FrameSource, error) {
			mu.Lock()
			p := plans[0]
			plans = plans[1:]
			mu.Unlock()
			return frameFunc(func(i int) ([]byte, bool, frame.Rect, error) {
				if i == p.frames {
					<-p.end
					return nil, false, frame.Rect{}, io.EOF
				}
				return []byte{byte(i)}, i == 0, frame.Rect{W: 4, H: 4}, nil
			}), nil
		},
	}
	addr, done := startMulti(t, srv)
	defer func() {
		srv.Shutdown(contextWithTimeout(t))
		<-done
	}()
	release := func(ch chan struct{}) {
		select {
		case <-ch:
		default:
			close(ch)
		}
	}
	defer release(endB)
	defer release(endA)

	// open dials, handshakes with token and reads frames frames.
	open := func(token string, frames int) (*Client, net.Conn, string) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(conn)
		acc, err := c.Handshake(Hello{Device: "p", RoIWindow: 8, Scale: 2, ResumeToken: token})
		if err != nil {
			conn.Close()
			t.Fatal(err)
		}
		for i := 0; i < frames; i++ {
			if _, err := c.RecvFrame(); err != nil {
				conn.Close()
				t.Fatalf("frame %d: %v", i, err)
			}
		}
		return c, conn, acc.Token
	}
	a, aConn, token := open("", 3)
	defer aConn.Close()
	b, bConn, _ := open(token, 1)
	defer bConn.Close()

	// The predecessor ends while its successor streams on.
	release(endA)
	if _, err := a.RecvFrame(); err != io.EOF {
		t.Fatalf("first session: %v, want its Bye", err)
	}
	_ = a.Bye()
	waitFor(t, "first session end", func() bool { return srv.sessionCount() == 1 })

	var buf bytes.Buffer
	if err := srv.WriteFlight(&buf); err != nil {
		t.Fatal(err)
	}
	dumps, err := frametrace.ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 2 {
		t.Fatalf("flight dump has %d sessions, want 2", len(dumps))
	}
	identity := aConn.LocalAddr().String()
	for _, nd := range dumps {
		name, closed := strings.CutSuffix(nd.Name, " (closed)")
		if name != identity {
			t.Errorf("recorder %q, want both under the first connection's identity %q", nd.Name, identity)
		}
		switch len(nd.Dump.Frames) {
		case 3:
			if !closed {
				t.Errorf("the ended session's recorder %q is still live", nd.Name)
			}
		case 1:
			if closed {
				t.Errorf("the live session's recorder %q was retired by its predecessor's end", nd.Name)
			}
		default:
			t.Errorf("recorder %q holds %d frames, want 3 or 1", nd.Name, len(nd.Dump.Frames))
		}
	}

	release(endB)
	if _, err := b.RecvFrame(); err != io.EOF {
		t.Fatalf("second session: %v, want its Bye", err)
	}
	_ = b.Bye()
}

// TestShedClimbsWithoutFlightFrames: the shed ladder reads the session
// recorder's miss streak, and every session has a recorder — FlightFrames
// only sizes its ring.
func TestShedClimbsWithoutFlightFrames(t *testing.T) {
	probe := &shedProbe{frames: 8}
	srv := &MultiServer{
		Accept:    Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		Shed:      &ShedPolicy{EscalateStreak: 2},
		Deadline:  time.Nanosecond, // every frame misses
		NewSource: func(Hello) (FrameSource, error) { return probe, nil },
	}
	addr, done := startMulti(t, srv)
	if got := runClient(t, addr, "shed"); got != probe.frames {
		t.Fatalf("client got %d frames, want %d", got, probe.frames)
	}
	shutdownMulti(t, srv)
	<-done
	probe.mu.Lock()
	defer probe.mu.Unlock()
	if len(probe.levels) == 0 || probe.levels[0] != ShedRoIShrink {
		t.Errorf("shed levels = %v, want a climb to %d", probe.levels, ShedRoIShrink)
	}
}

// TestResumeOverlapKeepsSuccessorGauges: the per-session client gauges are
// named by identity, which a resumed client's redial shares with its
// predecessor. The predecessor ending while its successor streams on must
// leave the successor's gauges registered; the last session of the
// identity to end removes them.
func TestResumeOverlapKeepsSuccessorGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	ends := []chan struct{}{make(chan struct{}), make(chan struct{})}
	var mu sync.Mutex
	next := 0
	srv := &MultiServer{
		Accept:  Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		Metrics: reg,
		NewSource: func(Hello) (FrameSource, error) {
			mu.Lock()
			end := ends[next]
			next++
			mu.Unlock()
			return frameFunc(func(i int) ([]byte, bool, frame.Rect, error) {
				if i == 1 {
					<-end
					return nil, false, frame.Rect{}, io.EOF
				}
				return []byte{byte(i)}, true, frame.Rect{W: 4, H: 4}, nil
			}), nil
		},
	}
	addr, done := startMulti(t, srv)
	var once [2]sync.Once
	release := func(k int) { once[k].Do(func() { close(ends[k]) }) }
	defer func() {
		release(0)
		release(1)
		shutdownMulti(t, srv)
		<-done
	}()
	open := func(token string) (*Client, net.Conn, string) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		c := NewClient(conn)
		acc, err := c.Handshake(Hello{Device: "p", RoIWindow: 8, Scale: 2, ResumeToken: token})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RecvFrame(); err != nil {
			t.Fatal(err)
		}
		return c, conn, acc.Token
	}
	a, aConn, token := open("")
	b, _, _ := open(token)
	gauge := "stream_client_age_p99_us_" + metricLabel(aConn.LocalAddr().String())

	if err := b.SendStats(StatsPacket{Seq: 1, WindowFrames: 1, AgeP99: 4 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the successor's report", func() bool { return gaugeOf(reg.Snapshot(), gauge) == 4000 })

	release(0)
	if _, err := a.RecvFrame(); err != io.EOF {
		t.Fatalf("first session: %v, want its Bye", err)
	}
	_ = a.Bye()
	waitFor(t, "first session end", func() bool { return srv.sessionCount() == 1 })
	if got := gaugeOf(reg.Snapshot(), gauge); got != 4000 {
		t.Errorf("%s = %d after the predecessor ended, want the successor's 4000", gauge, got)
	}

	release(1)
	if _, err := b.RecvFrame(); err != io.EOF {
		t.Fatalf("second session: %v, want its Bye", err)
	}
	_ = b.Bye()
	waitFor(t, "second session end", func() bool { return srv.sessionCount() == 0 })
	for _, g := range reg.Snapshot().Gauges {
		if strings.HasPrefix(g.Name, "stream_client_") {
			t.Errorf("gauge %s survived the identity's last session", g.Name)
		}
	}
}
