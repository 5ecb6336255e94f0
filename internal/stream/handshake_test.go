package stream

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/telemetry"
)

// threeFrames is the test sessions' default source.
func threeFrames() FrameSource {
	return &sliceSource{frames: [][]byte{[]byte("f0"), []byte("f1"), []byte("f2")}}
}

// testAccept is the test sessions' default geometry.
var testAccept = Accept{Width: 160, Height: 90, GOPSize: 60, QStep: 6}

// serveFrames runs Serve on conn with a 3-frame source and returns its
// error channel.
func serveFrames(conn net.Conn) chan error {
	done := make(chan error, 1)
	go func() { done <- Serve(conn, ServerOptions{Accept: testAccept, Source: threeFrames()}) }()
	return done
}

// oneSource is a source factory that hands every session src.
func oneSource(src FrameSource) SourceFactory {
	return func(Hello) (FrameSource, error) { return src, nil }
}

// serveOne runs one session of srv on conn through the per-connection path
// the accept loop runs, and returns its error channel. A server without a
// source factory serves three frames, one without geometry testAccept.
func serveOne(conn net.Conn, srv *MultiServer) chan error {
	if srv.NewSource == nil {
		srv.NewSource = func(Hello) (FrameSource, error) { return threeFrames(), nil }
	}
	if srv.Accept == (Accept{}) {
		srv.Accept = testAccept
	}
	srv.start()
	done := make(chan error, 1)
	go func() { done <- srv.serveConn(conn) }()
	return done
}

// lastRecorder returns the flight recorder of srv's most recent session.
func lastRecorder(srv *MultiServer) *frametrace.Recorder {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.sessions[len(srv.sessions)-1].rec
}

// TestHandshakeClockSync checks the handshake end to end: the Accept's
// version, Cristian clock sync with the offset error bounded by RTT/2
// (both endpoints share one physical clock here, so the true offset is 0),
// and frames carrying the server's flight identity.
func TestHandshakeClockSync(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	done := serveOne(server, &MultiServer{FlightFrames: 8})

	c := NewClient(client)
	cfg, err := c.Handshake(Hello{Device: "sync", RoIWindow: 40, Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Version != ProtocolVersion {
		t.Fatalf("accept version = %d, want %d", cfg.Version, ProtocolVersion)
	}
	clock := c.Clock()
	if !clock.Synced {
		t.Fatal("the handshake should sync the clock")
	}
	if clock.RTT < 0 {
		t.Fatalf("negative rtt %v", clock.RTT)
	}
	// Same physical clock on both ends: the estimate's error — here the
	// offset itself — must respect the Cristian bound (±1µs of timestamp
	// quantisation slack).
	if off := clock.Offset.Abs(); off > clock.RTT/2+time.Microsecond {
		t.Errorf("|offset| %v exceeds RTT/2 %v", off, clock.RTT/2)
	}
	var ids []uint64
	for {
		pkt, err := c.RecvFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if pkt.FlightID == 0 || pkt.SendUnixMicro == 0 {
			t.Fatalf("frame without trace identity: %+v", pkt)
		}
		ids = append(ids, pkt.FlightID)
	}
	_ = c.Bye() // a client that is done hangs up; the server waits for it (control.finish)
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	if len(ids) != 3 {
		t.Fatalf("received %d frames", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("flight IDs not increasing: %v", ids)
		}
	}
}

// TestStatsBackchannel exercises the client → server telemetry path and the
// clean-close Bye over one session: the report lands in the session's
// per-identity gauges and the aggregate drop and miss counters.
func TestStatsBackchannel(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	reg := telemetry.NewRegistry()
	done := serveOne(server, &MultiServer{Metrics: reg})

	c := NewClient(client)
	if _, err := c.Handshake(Hello{Device: "bc", RoIWindow: 40, Scale: 2, Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	want := StatsPacket{
		Seq: 3, WindowFrames: 60, Dropped: 2, Misses: 5,
		DecodeP50: 3 * time.Millisecond, DecodeP99: 7 * time.Millisecond,
		SRP50: 4 * time.Millisecond, SRP99: 9 * time.Millisecond,
		AgeP50: 18 * time.Millisecond, AgeP99: 31 * time.Millisecond,
	}
	if err := c.SendStats(want); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the stats report", func() bool { return counterOf(reg.Snapshot(), "stream_client_stats_total") == 1 })
	// The session is live (its frames are unread), so its gauges are up.
	snap := reg.Snapshot()
	suffix := metricLabel(server.RemoteAddr().String())
	for name, v := range map[string]time.Duration{
		"stream_client_age_p50_us_":    want.AgeP50,
		"stream_client_age_p99_us_":    want.AgeP99,
		"stream_client_decode_p99_us_": want.DecodeP99,
		"stream_client_sr_p99_us_":     want.SRP99,
	} {
		if got := gaugeOf(snap, name+suffix); got != v.Microseconds() {
			t.Errorf("%s%s = %d, want %d", name, suffix, got, v.Microseconds())
		}
	}
	if d, m := counterOf(snap, "stream_client_dropped_total"), counterOf(snap, "stream_client_deadline_misses_total"); d != 2 || m != 5 {
		t.Errorf("dropped %d, misses %d; want 2 and 5", d, m)
	}
	for {
		if _, err := c.RecvFrame(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Bye(); err != nil {
		t.Fatal(err)
	}
	<-done
	deadline := time.Now().Add(5 * time.Second)
	for counterOf(reg.Snapshot(), "stream_client_bye_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client bye never counted")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBadHelloRejected: a Hello that arrives whole but does not parse —
// here Scale 0, what `gssr-client -scale 0` sent — is answered with a
// BadHello reject carrying the parse reason, by MultiServer and by Serve, so
// the client does not take the close for a network fault and redial. On a
// MultiServer it counts as rejected and spends no session or token.
func TestBadHelloRejected(t *testing.T) {
	bad := Hello{Device: "zero", RoIWindow: 8, Scale: 0, Version: ProtocolVersion}
	const reason = "non-positive hello fields"
	reg := telemetry.NewRegistry()
	srv := &MultiServer{
		Accept:    Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		Metrics:   reg,
		NewSource: func(Hello) (FrameSource, error) { return &countingSource{n: 4}, nil },
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
	if err := WriteHello(conn, bad); err != nil {
		t.Fatal(err)
	}
	_, err = NewClient(conn).awaitAccept(0)
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Code != RejectBadHello || !strings.Contains(rej.Reason, reason) {
		t.Fatalf("MultiServer: got %v, want a bad-hello reject naming %q", err, reason)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("MultiServer: conn not closed behind the reject: %v", err)
	}
	snap := reg.Snapshot()
	if r, a := counterOf(snap, "stream_sessions_rejected_total"), counterOf(snap, "stream_sessions_accepted_total"); r != 1 || a != 0 {
		t.Errorf("rejected %d, accepted %d; want 1 and 0", r, a)
	}
	srv.mu.Lock()
	tokens := len(srv.resumes)
	srv.mu.Unlock()
	if n := srv.sessionCount(); n != 0 || tokens != 0 {
		t.Errorf("%d sessions and %d resume tokens, want none", n, tokens)
	}

	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	served := serveFrames(server)
	if err := WriteHello(client, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(client).awaitAccept(0); !errors.As(err, &rej) || rej.Code != RejectBadHello || !strings.Contains(rej.Reason, reason) {
		t.Fatalf("Serve: got %v, want a bad-hello reject naming %q", err, reason)
	}
	if err := <-served; !errors.Is(err, ErrProtocol) {
		t.Errorf("Serve returned %v, want the protocol error", err)
	}
}

// TestVersionMismatchRejected: a Hello announcing any version but
// ProtocolVersion — older (4 is the last format with the spectator relay, 5
// the last whose frames carry codec version 3), newer, or none — is refused with a typed BadHello reject naming both
// numbers. A connection that opens with message type 8, version 4's
// Subscribe, is closed without a reply. Neither leaves anything behind on
// the server: no session and no resume token.
func TestVersionMismatchRejected(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := &MultiServer{
		Accept:    Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		Metrics:   reg,
		NewSource: func(Hello) (FrameSource, error) { return &countingSource{n: 4}, nil },
	}
	addr, done := startMulti(t, srv)
	defer func() {
		srv.Shutdown(contextWithTimeout(t))
		<-done
	}()
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}

	for _, ver := range []int{0, 4, 5, ProtocolVersion + 1} {
		conn := dial()
		if err := WriteHello(conn, Hello{Device: "old", RoIWindow: 8, Scale: 2, Version: ver}); err != nil {
			t.Fatal(err)
		}
		_, err := NewClient(conn).awaitAccept(0)
		var rej *RejectedError
		if !errors.As(err, &rej) || rej.Code != RejectBadHello {
			t.Fatalf("v%d: got %v, want a bad-hello reject", ver, err)
		}
		if want := fmt.Sprintf("protocol version %d, this server speaks %d", ver, ProtocolVersion); rej.Reason != want {
			t.Errorf("v%d: reason %q, want %q", ver, rej.Reason, want)
		}
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("v%d: conn not closed behind the reject: %v", ver, err)
		}
		conn.Close()
	}

	// A version-4 Subscribe: type 8, channel "arena", device "pixel".
	subscribe, err := hex.DecodeString("0815056172656e6105706978656c048080f9c0c1c48203")
	if err != nil {
		t.Fatal(err)
	}
	conn := dial()
	if _, err := conn.Write(subscribe); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 64)); err != io.EOF {
		t.Errorf("type-8 opening: read %d bytes, err %v; want the connection closed without a reply", n, err)
	}
	conn.Close()

	if n := srv.sessionCount(); n != 0 {
		t.Errorf("%d sessions, want none", n)
	}
	srv.mu.Lock()
	tokens := len(srv.resumes)
	srv.mu.Unlock()
	if tokens != 0 {
		t.Errorf("%d resume tokens issued, want none", tokens)
	}
	if n := counterOf(reg.Snapshot(), "stream_sessions_accepted_total"); n != 0 {
		t.Errorf("stream_sessions_accepted_total = %d, want 0", n)
	}
}
