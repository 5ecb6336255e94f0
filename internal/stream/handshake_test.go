package stream

import (
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/telemetry"
)

// serveFrames runs a 3-frame server session on conn and returns its error
// channel.
func serveFrames(conn io.ReadWriter, opt ServerOptions) chan error {
	if opt.Source == nil {
		opt.Source = &sliceSource{frames: [][]byte{[]byte("f0"), []byte("f1"), []byte("f2")}}
	}
	if opt.Accept == (Accept{}) {
		opt.Accept = Accept{Width: 160, Height: 90, GOPSize: 60, QStep: 6}
	}
	done := make(chan error, 1)
	go func() { done <- Serve(conn, opt) }()
	return done
}

// TestHandshakeClockSync checks the handshake end to end: the Accept's
// version, Cristian clock sync with the offset error bounded by RTT/2
// (both endpoints share one physical clock here, so the true offset is 0),
// and frames carrying the server's flight identity.
func TestHandshakeClockSync(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	rec := frametrace.New(frametrace.Config{Frames: 8})
	done := serveFrames(server, ServerOptions{Flight: rec})

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
	_ = c.Bye() // a client that is done hangs up; the server waits for it (awaitHangup)
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
// clean-close Bye over one session.
func TestStatsBackchannel(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	reg := telemetry.NewRegistry()
	stats := make(chan StatsPacket, 4)
	done := serveFrames(server, ServerOptions{
		Metrics: reg,
		OnStats: func(st StatsPacket) { stats <- st },
	})

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
	select {
	case got := <-stats:
		if got != want {
			t.Fatalf("stats = %+v, want %+v", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stats report never delivered")
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
	for reg.Snapshot().Counter("stream_client_bye_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client bye never counted")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestVersionMismatchRejected: a Hello or a Subscribe announcing any version
// but ProtocolVersion — older, newer, or none — is refused with a typed
// BadHello reject naming both numbers, and leaves nothing behind on the
// server: no session, no subscriber, no channel.
func TestVersionMismatchRejected(t *testing.T) {
	reg := telemetry.NewRegistry()
	release := make(chan struct{})
	srv := &MultiServer{
		Accept:    Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		Metrics:   reg,
		NewSource: func(Hello) (FrameSource, error) { return &gatedSource{nFrames: 4, gop: 4, release: release}, nil },
	}
	addr, done := startMulti(t, srv)
	defer func() {
		close(release)
		srv.Shutdown(contextWithTimeout(t))
		<-done
	}()
	_, pubConn := publishClient(t, addr, "arena") // a live channel for the Subscribes to name
	defer pubConn.Close()

	for _, ver := range []int{0, 3, 5} {
		for _, open := range []struct {
			name string
			send func(net.Conn) error
		}{
			{"hello", func(c net.Conn) error {
				return WriteHello(c, Hello{Device: "old", RoIWindow: 8, Scale: 2, Version: ver, Channel: "mine"})
			}},
			{"subscribe", func(c net.Conn) error {
				return WriteSubscribe(c, Subscribe{Channel: "arena", Device: "old", Version: ver})
			}},
		} {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			if err := open.send(conn); err != nil {
				t.Fatal(err)
			}
			_, err = NewClient(conn).awaitAccept(0)
			var rej *RejectedError
			if !errors.As(err, &rej) || rej.Code != RejectBadHello {
				t.Fatalf("%s v%d: got %v, want a bad-hello reject", open.name, ver, err)
			}
			if want := fmt.Sprintf("protocol version %d, this server speaks %d", ver, ProtocolVersion); rej.Reason != want {
				t.Errorf("%s v%d: reason %q, want %q", open.name, ver, rej.Reason, want)
			}
			if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Errorf("%s v%d: conn not closed behind the reject: %v", open.name, ver, err)
			}
			conn.Close()
		}
	}
	if n := srv.SessionCount(); n != 1 {
		t.Errorf("%d sessions, want only the publisher", n)
	}
	if n := srv.SubscriberCount(); n != 0 {
		t.Errorf("%d subscribers, want 0", n)
	}
	if srv.relay.Lookup("mine") != nil {
		t.Error("a rejected hello registered its channel")
	}
	if n := reg.Snapshot().Counter("stream_sessions_accepted_total"); n != 1 {
		t.Errorf("stream_sessions_accepted_total = %d, want 1", n)
	}
}
