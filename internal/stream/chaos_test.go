package stream

import (
	"context"
	"encoding/hex"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gamestreamsr/internal/faultnet"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/telemetry"
	"gamestreamsr/internal/testkit"
)

// This file is the fault-tolerance suite (DESIGN.md §15): heartbeat
// liveness, the idle reaper and resume tokens, over pipes and over real
// TCP with faultnet injecting the failures. The resume across a real reset
// is cmd/gssr-server's chaos harness.

// pacedSource serves n frames with a fixed inter-frame gap — long enough
// that a session's liveness window elapses between frames unless the client
// heartbeats.
type pacedSource struct {
	n    int
	pace time.Duration
}

func (s *pacedSource) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	if i >= s.n {
		return nil, false, frame.Rect{}, io.EOF
	}
	if i > 0 {
		time.Sleep(s.pace)
	}
	return []byte{byte(i)}, i == 0, frame.Rect{W: 4, H: 4}, nil
}

// TestPingPong: a client heartbeats mid-stream; the server pongs (counted
// in stream_pings_total), and the client's RTT estimate updates from the
// echoed timestamp.
func TestPingPong(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	reg := telemetry.NewRegistry()
	done := serveOne(server, &MultiServer{
		Metrics:   reg,
		NewSource: oneSource(&pacedSource{n: 3, pace: 50 * time.Millisecond}),
	})

	c := NewClient(client)
	if _, err := c.Handshake(Hello{Device: "hb", RoIWindow: 8, Scale: 2}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := c.SendPing(); err != nil {
					return
				}
			}
		}
	}()
	frames := 0
	for {
		_, err := c.RecvFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames++
	}
	close(stop)
	wg.Wait()
	if frames != 3 {
		t.Fatalf("got %d frames, want 3", frames)
	}
	rtt, pongs := c.PingRTT()
	if pongs == 0 {
		t.Fatal("no pongs observed over a 100ms session of 10ms pings")
	}
	if rtt < 0 || rtt > 5*time.Second {
		t.Fatalf("implausible heartbeat RTT %v", rtt)
	}
	_ = c.Bye() // a client that is done hangs up; the server waits for it (control.finish)
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	if n := testkit.CounterOf(reg.Snapshot(), "stream_pings_total"); n == 0 {
		t.Fatal("server counted no pings")
	}
}

// TestResumeTokenIssued: a session's Accept carries a freshly minted resume
// token, and a client that replays it is issued the same token again.
func TestResumeTokenIssued(t *testing.T) {
	srv := &MultiServer{}
	session := func(replay string) string {
		server, client := net.Pipe()
		defer server.Close()
		defer client.Close()
		done := serveOne(server, srv)
		c := NewClient(client)
		cfg, err := c.Handshake(Hello{Device: "rt", RoIWindow: 8, Scale: 2, ResumeToken: replay})
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := c.RecvFrame(); err != nil {
				break
			}
		}
		_ = c.Bye() // a client that is done hangs up; the server waits for it (control.finish)
		<-done
		return cfg.Token
	}
	token := session("")
	if _, err := hex.DecodeString(token); err != nil || len(token) != 24 {
		t.Fatalf("token %q, want 24 hex digits", token)
	}
	if again := session(token); again != token {
		t.Errorf("replayed token re-issued as %q, want %q", again, token)
	}
}

// TestIdleReaperReapsSilentV4: a client that goes completely silent (no
// reads, no heartbeats) is reaped once the idle window elapses — the read
// deadline fires, the connection is closed (unblocking the stuck frame
// writer), and the reap is counted.
func TestIdleReaperReapsSilentV4(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	reg := telemetry.NewRegistry()
	done := serveOne(server, &MultiServer{
		Metrics:     reg,
		IdleTimeout: 80 * time.Millisecond,
		NewSource:   oneSource(&pacedSource{n: 100, pace: time.Millisecond}),
	})

	c := NewClient(client)
	if _, err := c.Handshake(Hello{Device: "dead", RoIWindow: 8, Scale: 2, Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	// Silence: no pings, no reads. The server's next frame write blocks on
	// the pipe; only the reaper can end the session.
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("session to a silent peer ended cleanly")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reaper never fired")
	}
	if n := testkit.CounterOf(reg.Snapshot(), "stream_sessions_reaped_total"); n != 1 {
		t.Fatalf("stream_sessions_reaped_total = %d, want 1", n)
	}
}

// TestIdleReaperSparesHeartbeatingClient: frames arrive slower than the idle
// window, but the client's heartbeats keep the session alive — liveness
// measures peer traffic, not frame cadence.
func TestIdleReaperSparesHeartbeatingClient(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	reg := telemetry.NewRegistry()
	done := serveOne(server, &MultiServer{
		Metrics:     reg,
		IdleTimeout: 80 * time.Millisecond,
		NewSource:   oneSource(&pacedSource{n: 3, pace: 200 * time.Millisecond}),
	})

	c := NewClient(client)
	if _, err := c.Handshake(Hello{Device: "alive", RoIWindow: 8, Scale: 2, Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := c.SendPing(); err != nil {
					return
				}
			}
		}
	}()
	frames := 0
	for {
		_, err := c.RecvFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames++
	}
	close(stop)
	wg.Wait()
	_ = c.Bye() // a client that is done hangs up; the server waits for it (control.finish)
	if err := <-done; err != nil {
		t.Fatalf("heartbeating session reaped: %v", err)
	}
	if frames != 3 {
		t.Fatalf("got %d frames, want 3", frames)
	}
	if n := testkit.CounterOf(reg.Snapshot(), "stream_sessions_reaped_total"); n != 0 {
		t.Fatalf("stream_sessions_reaped_total = %d, want 0", n)
	}
}

// TestRejectedErrorSurfacesReason pins the operator-facing error text: the
// server's reason string and retry hint must both appear, so a fatal reject
// in client logs says *why* ("no SLO headroom"), not just a code.
func TestRejectedErrorSurfacesReason(t *testing.T) {
	e := &RejectedError{Code: RejectBusy, Reason: "no SLO headroom: p99 4ms", RetryAfter: 2 * time.Second}
	msg := e.Error()
	for _, want := range []string{"no SLO headroom: p99 4ms", "retry after 2s"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	bare := &RejectedError{Code: RejectBadHello, Reason: "protocol version 4, this server speaks 5"}
	if !strings.Contains(bare.Error(), "protocol version 4, this server speaks 5") {
		t.Errorf("error %q missing reason", bare.Error())
	}
}

// TestBlackholedSessionReaped: a faultnet blackhole swallows a
// player's traffic mid-session (its heartbeats stop arriving); the
// server's idle reaper removes the session within a few missed ping
// intervals and the reap is visible on /metrics.
func TestBlackholedSessionReaped(t *testing.T) {
	const pingEvery = 30 * time.Millisecond
	reg := telemetry.NewRegistry()
	srv := &MultiServer{
		Accept:      Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		Metrics:     reg,
		IdleTimeout: 3 * pingEvery, // reap after 3 missed heartbeats
		NewSource: func(Hello) (FrameSource, error) {
			return &pacedSource{n: 10000, pace: 5 * time.Millisecond}, nil
		},
	}
	addr, done := startMulti(t, srv)
	defer func() {
		srv.Shutdown(contextWithTimeout(t))
		<-done
	}()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := faultnet.Wrap(raw, faultnet.Script{
		Events: []faultnet.Event{{After: 150 * time.Millisecond, Action: faultnet.Blackhole}},
	})
	defer conn.Close()
	c := NewClient(conn)
	if _, err := c.Handshake(Hello{Device: "bh", RoIWindow: 8, Scale: 2, Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // heartbeats until the blackhole swallows the socket
		defer wg.Done()
		tick := time.NewTicker(pingEvery)
		defer tick.Stop()
		for range tick.C {
			if err := c.SendPing(); err != nil {
				return
			}
		}
	}()
	go func() { // drain frames so the server streams freely pre-blackhole
		defer wg.Done()
		for {
			if _, err := c.RecvFrame(); err != nil {
				return
			}
		}
	}()

	waitFor(t, "blackholed session reaped", func() bool {
		return testkit.CounterOf(reg.Snapshot(), "stream_sessions_reaped_total") >= 1
	})
	conn.Close() // unblocks the blackholed ping/recv goroutines
	wg.Wait()
}

// contextWithTimeout is a tiny helper for shutdown deadlines in tests.
func contextWithTimeout(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}
