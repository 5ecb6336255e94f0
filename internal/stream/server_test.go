package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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
	if err := <-done; !errors.Is(err, errServerClosed) {
		t.Errorf("Serve returned %v, want server-closed", err)
	}
	if srv.SessionCount() != 0 {
		t.Errorf("%d sessions left after shutdown", srv.SessionCount())
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
	if got := s.Counter("stream_sessions_rejected_total"); got != 1 {
		t.Errorf("rejected_total = %d, want 1", got)
	}
	if got := s.Counter("stream_sessions_rejected_capacity_total"); got != 1 {
		t.Errorf("rejected_capacity_total = %d, want 1", got)
	}
	if got := s.Counter("stream_sessions_accepted_total"); got != 1 {
		t.Errorf("accepted_total = %d, want 1", got)
	}
	if got := s.Gauge("stream_sessions_active"); got != 1 {
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
	if got := s.Counter("stream_frames_sent_total"); got != nFrames {
		t.Errorf("frames_sent_total = %d, want %d", got, nFrames)
	}
	// countingSource payloads are 1 byte each.
	if got := s.Counter("stream_bytes_sent_total"); got != nFrames {
		t.Errorf("bytes_sent_total = %d, want %d", got, nFrames)
	}
	h, ok := s.Histogram("stream_frame_send_seconds")
	if !ok || h.Count != nFrames {
		t.Errorf("frame_send_seconds count = %d (present %v), want %d", h.Count, ok, nFrames)
	}
	if got := s.Gauge("stream_sessions_active"); got != 0 {
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
	if got := reg.Snapshot().Counter("frametrace_frames_total"); got != 2*nFrames {
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
		waitFor(t, "session end", func() bool { return srv.SessionCount() == 0 })
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done

	srv.mu.Lock()
	kept := len(srv.flights)
	srv.mu.Unlock()
	// Pruning runs at session start, so the cap can be exceeded by the
	// sessions that finished after the last prune — but it must not grow
	// with the session count.
	if kept > retiredFlights+2 {
		t.Errorf("%d recorders retained after %d sessions, cap is ~%d", kept, sessions, retiredFlights)
	}
	var buf bytes.Buffer
	if err := srv.WriteFlight(&buf); err != nil {
		t.Fatal(err)
	}
	if dumps, err := frametrace.ParseChromeTrace(&buf); err != nil || len(dumps) != kept {
		t.Errorf("dump has %d sessions (err %v), want %d", len(dumps), err, kept)
	}
}

// TestServeFlightAndSlowSendLog asserts the session send loop records into
// an externally owned recorder and logs send-latency outliers with the
// flight frame ID (the log line is the server-side correlation handle).
func TestServeFlightAndSlowSendLog(t *testing.T) {
	rec := frametrace.New(frametrace.Config{Frames: 8})
	lg := logx.New(logx.Config{Out: io.Discard, Ring: 64})
	// The slow-send limiter buckets are keyed by remote and live for the
	// whole process; a unique remote per run keeps -count=N runs fresh.
	remote := fmt.Sprintf("test-peer-%d", time.Now().UnixNano())

	server, client := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		Serve(server, ServerOptions{
			Accept:   Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
			Source:   &countingSource{n: 3},
			Flight:   rec,
			SlowSend: time.Nanosecond, // every send is an outlier
			Remote:   remote,
			Log:      lg,
		})
	}()
	c := NewClient(client)
	if _, err := c.Handshake(Hello{Device: "d", RoIWindow: 8, Scale: 2}); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, err := c.RecvFrame(); err != nil {
			break
		}
		n++
	}
	if n != 3 {
		t.Fatalf("client got %d frames", n)
	}
	d := rec.Snapshot()
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
	if srv.SessionCount() != 0 {
		t.Errorf("%d sessions left after shutdown", srv.SessionCount())
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
	if got := reg.Snapshot().Counter("stream_sessions_rejected_busy_total"); got != 1 {
		t.Errorf("rejected_busy_total = %d, want 1", got)
	}
}

// shedProbe is a FrameSource implementing both optional capabilities: it
// records shed-level transitions and the session scheduler client, and
// sleeps past the deadline for the first slowFrames frames.
type shedProbe struct {
	mu         sync.Mutex
	levels     []int
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
	defer sched.Close()
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
	} else if probe.sched.Priority() != parallel.Normal {
		t.Errorf("session client priority = %v after recovery, want Normal", probe.sched.Priority())
	}
	s := reg.Snapshot()
	if got := s.Counter("stream_shed_escalations_total"); got != 3 {
		t.Errorf("shed_escalations_total = %d, want 3", got)
	}
	if got := s.Counter("stream_shed_recoveries_total"); got < 1 {
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
			if pending != 0 || srv.SessionCount() != 0 {
				t.Fatalf("%d pending connections and %d sessions left behind", pending, srv.SessionCount())
			}
		})
	}
}
