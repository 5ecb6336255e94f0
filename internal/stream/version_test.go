package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/telemetry"
)

func TestNegotiateVersion(t *testing.T) {
	cases := []struct{ client, want int }{
		{0, ProtocolV1}, // unversioned v1 hello
		{1, ProtocolV1},
		{2, ProtocolV2},
		{3, ProtocolV3},
		{4, ProtocolV4},
		{5, ProtocolV4}, // future client negotiates down to what we speak
		{99, ProtocolV4},
	}
	for _, c := range cases {
		if got := NegotiateVersion(c.client); got != c.want {
			t.Errorf("NegotiateVersion(%d) = %d, want %d", c.client, got, c.want)
		}
	}
}

// serveFrames runs a 3-frame server session on conn with a flight recorder
// attached (so v2 frames carry flight IDs) and returns its error channel.
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

// TestHandshakeV2 checks the versioned handshake end to end: negotiated
// version, Cristian clock sync with the offset error bounded by RTT/2
// (both endpoints share one physical clock here, so the true offset is 0),
// and frames carrying the server's flight identity.
func TestHandshakeV2(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	rec := frametrace.New(frametrace.Config{Frames: 8})
	done := serveFrames(server, ServerOptions{Flight: rec})

	c := NewClient(client)
	cfg, err := c.Handshake(Hello{Device: "v2", RoIWindow: 40, Scale: 2, Version: ProtocolVersion})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Version != ProtocolVersion {
		t.Fatalf("negotiated version = %d, want %d", cfg.Version, ProtocolVersion)
	}
	clock := c.Clock()
	if !clock.Synced {
		t.Fatal("v2 handshake should sync the clock")
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
			t.Fatalf("v2 frame without trace identity: %+v", pkt)
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

// TestV1ClientNewServer: an unversioned client must get a byte-identical
// v1 session from a new server — unversioned Accept, no clock fields, no
// frame trace identity — even when the server records a flight.
func TestV1ClientNewServer(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	rec := frametrace.New(frametrace.Config{Frames: 8})
	done := serveFrames(server, ServerOptions{Flight: rec})

	c := NewClient(client)
	cfg, err := c.Handshake(Hello{Device: "v1", RoIWindow: 40, Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Version != 0 || cfg.RecvUnixMicro != 0 || cfg.SendUnixMicro != 0 {
		t.Fatalf("v1 client got versioned accept: %+v", cfg)
	}
	if c.Clock().Synced {
		t.Error("v1 session must not claim clock sync")
	}
	for {
		pkt, err := c.RecvFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if pkt.FlightID != 0 || pkt.SendUnixMicro != 0 {
			t.Fatalf("v1 frame carries v2 fields: %+v", pkt)
		}
	}
	_ = c.Bye() // a client that is done hangs up; the server waits for it (awaitHangup)
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestFutureClientNegotiatesDown: a client announcing a version newer than
// the server speaks gets the server's best, not an error.
func TestFutureClientNegotiatesDown(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	done := serveFrames(server, ServerOptions{})

	c := NewClient(client)
	cfg, err := c.Handshake(Hello{Device: "future", RoIWindow: 40, Scale: 2, Version: ProtocolVersion + 1})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Version != ProtocolVersion {
		t.Fatalf("negotiated %d, want %d", cfg.Version, ProtocolVersion)
	}
	for {
		if _, err := c.RecvFrame(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	_ = c.Bye() // a client that is done hangs up; the server waits for it (awaitHangup)
	<-done
}

// oldParseHello replicates the pre-versioning server's strict Hello parser
// (exact field count, trailing bytes rejected) — the behaviour a v2 client
// must survive by redialling with a v1 hello.
func oldParseHello(body []byte) (Hello, error) {
	var h Hello
	if len(body) < 1 {
		return h, fmt.Errorf("%w: empty hello", ErrProtocol)
	}
	n := int(body[0])
	body = body[1:]
	if len(body) < n {
		return h, fmt.Errorf("%w: truncated device name", ErrProtocol)
	}
	h.Device = string(body[:n])
	vals, err := readUvarints(body[n:], 2)
	if err != nil {
		return h, err
	}
	h.RoIWindow, h.Scale = int(vals[0]), int(vals[1])
	return h, nil
}

// rawBody strips the outer message framing (type byte + length uvarint),
// returning the body an old server's parser would see.
func rawBody(t *testing.T, buf []byte) []byte {
	t.Helper()
	if len(buf) < 2 {
		t.Fatal("short message")
	}
	n, used := binary.Uvarint(buf[1:])
	if used <= 0 || int(n) != len(buf)-1-used {
		t.Fatalf("bad framing: %v", buf)
	}
	return buf[1+used:]
}

// TestOldServerRejectsV2Hello pins the downgrade contract: a strict v1
// parser errors on the versioned hello (so the client knows to redial) and
// accepts the v1 re-hello byte-for-byte.
func TestOldServerRejectsV2Hello(t *testing.T) {
	var v2, v1 bytes.Buffer
	if err := WriteHello(&v2, Hello{Device: "d", RoIWindow: 32, Scale: 2, Version: ProtocolVersion, SendUnixMicro: 12345}); err != nil {
		t.Fatal(err)
	}
	if err := WriteHello(&v1, Hello{Device: "d", RoIWindow: 32, Scale: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := oldParseHello(rawBody(t, v2.Bytes())); err == nil {
		t.Fatal("old strict parser accepted a versioned hello — downgrade redial would never trigger")
	}
	h, err := oldParseHello(rawBody(t, v1.Bytes()))
	if err != nil {
		t.Fatalf("old parser rejected a v1 hello: %v", err)
	}
	if h.Device != "d" || h.RoIWindow != 32 || h.Scale != 2 {
		t.Fatalf("old parse = %+v", h)
	}
}

// TestHelloChannelAbsentLeniency: an old v2 build that announces a newer
// version (its own TestFutureClientNegotiatesDown behaviour) writes a v2
// hello body with Version >= 3 but no channel field. The v3 parser must
// treat the absent field as "no channel" — only a *truncated* channel may
// error — or every old future-proofed client breaks against a new server.
func TestHelloChannelAbsentLeniency(t *testing.T) {
	// A v2-layout hello body claiming version 3: device, then the four
	// uvarint fields, nothing after.
	body := []byte{1, 'd'}
	for _, v := range []uint64{32, 2, 3, 12345} { // roi, scale, version, sendUS
		body = binary.AppendUvarint(body, v)
	}
	h, err := parseHello(body)
	if err != nil {
		t.Fatalf("v3 hello without channel bytes rejected: %v", err)
	}
	if h.Version != 3 || h.Channel != "" {
		t.Fatalf("parsed %+v, want version 3 with no channel", h)
	}
	// A truncated channel (length byte promises more than the body holds)
	// is still an error, not silently empty.
	bad := append(append([]byte(nil), body...), 5, 'a')
	if _, err := parseHello(bad); err == nil {
		t.Fatal("truncated channel field accepted")
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
