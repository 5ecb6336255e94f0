package stream

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"gamestreamsr/internal/frame"
	"strings"
)

func TestMsgTypeString(t *testing.T) {
	for _, c := range []struct {
		t    MsgType
		want string
	}{
		{MsgHello, "hello"}, {MsgAccept, "accept"}, {MsgFrame, "frame"},
		{MsgInput, "input"}, {MsgBye, "bye"}, {MsgType(99), "MsgType(99)"},
	} {
		if c.t.String() != c.want {
			t.Errorf("%d.String() = %q", c.t, c.t.String())
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	h := Hello{Device: "Samsung Galaxy Tab S8", RoIWindow: 300, Scale: 2}
	if err := WriteHello(&buf, h); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgHello || *msg.Hello != h {
		t.Fatalf("round trip = %+v", msg)
	}
}

func TestHelloValidation(t *testing.T) {
	var buf bytes.Buffer
	long := make([]byte, 300)
	if err := WriteHello(&buf, Hello{Device: string(long), RoIWindow: 1, Scale: 1}); err == nil {
		t.Error("over-long device name should fail")
	}
	// Zero RoI window rejected on parse.
	buf.Reset()
	if err := WriteHello(&buf, Hello{Device: "x", RoIWindow: 0, Scale: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMsg(&buf); err == nil {
		t.Error("zero RoI window should be rejected")
	}
	// The client is ×2: every other scale is a protocol error on parse.
	for _, scale := range []int{0, 1, 3, 4} {
		buf.Reset()
		if err := WriteHello(&buf, Hello{Device: "x", RoIWindow: 8, Scale: scale}); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadMsg(&buf); !errors.Is(err, ErrProtocol) {
			t.Errorf("scale %d: ReadMsg = %v, want a protocol error", scale, err)
		}
	}
}

// TestRecvFrameNeedsBye: RecvFrame's io.EOF means the server said Bye. A
// connection that closes after two frames without one — a session reaped,
// shut down or killed — is an error wrapping io.ErrUnexpectedEOF.
func TestRecvFrameNeedsBye(t *testing.T) {
	for _, bye := range []bool{false, true} {
		server, client := net.Pipe()
		go func() {
			defer server.Close()
			for i := range 2 {
				if err := WriteFrame(server, FramePacket{Index: uint32(i), Payload: []byte("frame")}); err != nil {
					return
				}
			}
			if bye {
				_ = WriteBye(server)
			}
		}()
		c := NewClient(client)
		for i := range 2 {
			if f, err := c.RecvFrame(); err != nil || f.Index != uint32(i) {
				t.Fatalf("bye=%v: frame %d: got %d, err %v", bye, i, f.Index, err)
			}
		}
		_, err := c.RecvFrame()
		client.Close()
		switch {
		case bye && err != io.EOF:
			t.Errorf("after the bye: RecvFrame = %v, want io.EOF", err)
		case !bye && (err == io.EOF || !errors.Is(err, io.ErrUnexpectedEOF)):
			t.Errorf("closed without a bye: RecvFrame = %v, want an error wrapping io.ErrUnexpectedEOF", err)
		}
	}
}

func TestAcceptRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	a := Accept{Width: 1280, Height: 720, GOPSize: 60, QStep: 6}
	if err := WriteAccept(&buf, a); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgAccept || *msg.Accept != a {
		t.Fatalf("round trip = %+v", msg)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := func(idx uint32, key bool, x, y, w, h uint8, payload []byte) bool {
		var buf bytes.Buffer
		in := FramePacket{
			Index:  idx,
			Keyenc: key,
			RoI:    frame.Rect{X: int(x), Y: int(y), W: int(w), H: int(h)},
		}
		if payload != nil {
			in.Payload = payload
		}
		if err := WriteFrame(&buf, in); err != nil {
			return false
		}
		msg, err := ReadMsg(&buf)
		if err != nil || msg.Type != MsgFrame {
			return false
		}
		out := *msg.Frame
		return out.Index == in.Index && out.Keyenc == in.Keyenc &&
			out.RoI == in.RoI && bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestInputRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := InputPacket{Seq: 42, Payload: []byte("W down")}
	if err := WriteInput(&buf, in); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMsg(&buf)
	if err != nil || msg.Type != MsgInput {
		t.Fatal(err)
	}
	if msg.Input.Seq != 42 || string(msg.Input.Payload) != "W down" {
		t.Fatalf("round trip = %+v", msg.Input)
	}
}

func TestByeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBye(&buf); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMsg(&buf)
	if err != nil || msg.Type != MsgBye {
		t.Fatalf("bye round trip: %v, %v", msg, err)
	}
}

func TestReadMsgRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},
		{byte(MsgHello)},                    // missing length
		{byte(MsgHello), 0x05, 0x01},        // short body
		{0x63, 0x00},                        // unknown type
		{byte(MsgFrame), 0x01, 0xFF},        // truncated frame body
		{byte(MsgAccept), 0x02, 0x00, 0x00}, // zero accept fields
		// Every field of the one format is required: a Hello that stops
		// before its token, one whose token is cut short, an Accept
		// without a token field.
		{byte(MsgHello), 6, 1, 'd', 32, 2, 5, 1},
		{byte(MsgHello), 8, 1, 'd', 32, 2, 5, 1, 9, 'a'},
		{byte(MsgAccept), 7, 64, 36, 4, 6, 4, 1, 2},
	}
	for i, c := range cases {
		if _, err := ReadMsg(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestReadMsgBodyLimit(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(byte(MsgFrame))
	// Length claiming 1 GB.
	buf.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x04})
	if _, err := ReadMsg(&buf); err == nil || !errors.Is(err, ErrProtocol) {
		t.Errorf("oversized body should be rejected: %v", err)
	}
}

func TestFramePayloadLengthMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FramePacket{Payload: []byte("abcd")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw = raw[:len(raw)-1] // drop one payload byte
	// Fix up the outer length prefix: easier to rebuild.
	inner := raw[2:]
	var rebuilt bytes.Buffer
	rebuilt.WriteByte(byte(MsgFrame))
	rebuilt.WriteByte(byte(len(inner)))
	rebuilt.Write(inner)
	if _, err := ReadMsg(&rebuilt); err == nil {
		t.Error("payload length mismatch should fail")
	}
}

// sliceSource serves a fixed set of frames.
type sliceSource struct {
	frames [][]byte
}

func (s *sliceSource) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	if i >= len(s.frames) {
		return nil, false, frame.Rect{}, io.EOF
	}
	return s.frames[i], i == 0, frame.Rect{X: i, Y: i, W: 10, H: 10}, nil
}

func TestSessionOverPipe(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()

	src := &sliceSource{frames: [][]byte{[]byte("frame0"), []byte("frame1"), []byte("frame2")}}
	inputs := make(chan InputPacket, 4)
	done := serveOne(server, &MultiServer{
		NewSource: oneSource(src),
		OnInput:   func(_ string, in InputPacket) { inputs <- in },
	})

	c := NewClient(client)
	cfg, err := c.Handshake(Hello{Device: "test", RoIWindow: 40, Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Width != 160 || cfg.GOPSize != 60 {
		t.Fatalf("accept = %+v", cfg)
	}
	if err := c.SendInput(InputPacket{Seq: 1, Payload: []byte("jump")}); err != nil {
		t.Fatal(err)
	}
	var got []FramePacket
	for {
		f, err := c.RecvFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, f)
	}
	_ = c.Bye() // a client that is done hangs up; the server waits for it (control.finish)
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("received %d frames", len(got))
	}
	if !got[0].Keyenc || got[1].Keyenc {
		t.Error("keyframe flags wrong")
	}
	if string(got[2].Payload) != "frame2" || got[2].RoI.X != 2 {
		t.Errorf("frame 2 = %+v", got[2])
	}
	select {
	case in := <-inputs:
		if string(in.Payload) != "jump" || in.Seq != 1 {
			t.Errorf("input = %+v", in)
		}
	case <-time.After(5 * time.Second):
		t.Error("input never delivered")
	}
}

func TestSessionOverTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	src := &sliceSource{frames: [][]byte{[]byte("a"), []byte("b")}}
	done := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		done <- Serve(conn, ServerOptions{
			Accept: Accept{Width: 64, Height: 36, GOPSize: 4, QStep: 6},
			Source: src,
		})
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := NewClient(conn)
	if _, err := c.Handshake(Hello{Device: "tcp-test", RoIWindow: 16, Scale: 2}); err != nil {
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
	if n != 2 {
		t.Fatalf("received %d frames", n)
	}
	_ = c.Bye() // a client that is done hangs up; the server waits for it (control.finish)
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
}

func TestServeMaxFrames(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	// An infinite source bounded by MaxFrames.
	infinite := frameFunc(func(i int) ([]byte, bool, frame.Rect, error) {
		return []byte{byte(i)}, false, frame.Rect{}, nil
	})
	done := serveOne(server, &MultiServer{NewSource: oneSource(infinite), MaxFrames: 5})
	c := NewClient(client)
	if _, err := c.Handshake(Hello{Device: "x", RoIWindow: 16, Scale: 2}); err != nil {
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
	if n != 5 {
		t.Fatalf("received %d frames, want 5", n)
	}
	_ = c.Bye() // a client that is done hangs up; the server waits for it (control.finish)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

type frameFunc func(int) ([]byte, bool, frame.Rect, error)

func (f frameFunc) NextFrame(i int) ([]byte, bool, frame.Rect, error) { return f(i) }

func TestServeRequiresSource(t *testing.T) {
	if err := Serve(nil, ServerOptions{}); err == nil {
		t.Fatal("missing source should fail")
	}
}

func TestClientRejectsWrongHandshakeReply(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	go func() {
		ReadMsg(server)  // consume hello
		WriteBye(server) // wrong reply
	}()
	c := NewClient(client)
	if _, err := c.Handshake(Hello{Device: "x", RoIWindow: 16, Scale: 2}); err == nil {
		t.Fatal("wrong handshake reply should fail")
	}
}

func TestRejectRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Reject{Code: RejectBusy, Reason: "no SLO headroom: p99 21ms"}
	if err := WriteReject(&buf, in); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgReject || msg.Reject == nil {
		t.Fatalf("message = %+v, want a reject", msg)
	}
	if *msg.Reject != in {
		t.Errorf("round trip = %+v, want %+v", *msg.Reject, in)
	}
	if got := in.Code.String(); got != "busy" {
		t.Errorf("RejectBusy.String() = %q", got)
	}

	// Oversized reasons are truncated to the wire limit, not an error.
	long := Reject{Code: RejectCapacity, Reason: strings.Repeat("x", 300)}
	buf.Reset()
	if err := WriteReject(&buf, long); err != nil {
		t.Fatal(err)
	}
	msg, err = ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(msg.Reject.Reason); n != 255 {
		t.Errorf("truncated reason length = %d, want 255", n)
	}
}

// TestServeMatchesMultiServer: Serve is a one-connection MultiServer, so one
// source served through each gives the client the same frames — index,
// key flag, RoI and payload — followed by a Bye. Serve still answers a
// non-Hello opener with an error wrapping ErrProtocol, and a Hello of
// another version with a RejectBadHello.
func TestServeMatchesMultiServer(t *testing.T) {
	src := &sliceSource{frames: [][]byte{[]byte("k0"), []byte("p1"), []byte("p2"), []byte("p3")}}
	acc := Accept{Width: 64, Height: 36, GOPSize: 4, QStep: 6}
	receive := func(addr string) []FramePacket {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		c := NewClient(conn)
		if _, err := c.Handshake(Hello{Device: "same", RoIWindow: 16, Scale: 2}); err != nil {
			t.Fatal(err)
		}
		var got []FramePacket
		for {
			f, err := c.RecvFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			// The flight ID and send clock are per-session stamps.
			f.FlightID, f.SendUnixMicro = 0, 0
			got = append(got, f)
		}
		_ = c.Bye()
		return got
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// serveNext runs Serve on the next connection l accepts.
	serveNext := func() chan error {
		done := make(chan error, 1)
		go func() {
			conn, err := l.Accept()
			if err != nil {
				done <- err
				return
			}
			done <- Serve(conn, ServerOptions{Accept: acc, Source: src})
		}()
		return done
	}
	done := serveNext()
	viaServe := receive(l.Addr().String())
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	srv := &MultiServer{Accept: acc, NewSource: oneSource(src)}
	addr, multiDone := startMulti(t, srv)
	viaMulti := receive(addr)
	shutdownMulti(t, srv)
	<-multiDone

	if len(viaServe) != len(src.frames) || !reflect.DeepEqual(viaServe, viaMulti) {
		t.Fatalf("Serve sent %+v\nMultiServer sent %+v", viaServe, viaMulti)
	}

	// A connection that opens with a Bye.
	done = serveNext()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBye(conn); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrProtocol) {
		t.Errorf("non-hello opener: Serve returned %v, want ErrProtocol", err)
	}
	conn.Close()

	// A Hello of another version.
	done = serveNext()
	conn, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = NewClient(conn).Handshake(Hello{Device: "old", RoIWindow: 16, Scale: 2, Version: ProtocolVersion - 1})
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Code != RejectBadHello {
		t.Errorf("old version: handshake got %v, want a bad-hello reject", err)
	}
	if err := <-done; err == nil {
		t.Error("old version: Serve returned nil")
	}
}

// readCounter counts the Read calls made on its reader.
type readCounter struct {
	io.ReadWriter
	reads int
}

func (r *readCounter) Read(p []byte) (int, error) {
	r.reads++
	return r.ReadWriter.Read(p)
}

// TestRecvFrameReadCalls: the client reads through one buffer, so a frame
// message costs one read of the connection when it fits the buffer and two
// when it does not — not one for the type byte, one per length-varint byte
// and one for the body. A connection that hands over every byte asked for
// makes the count exact.
func TestRecvFrameReadCalls(t *testing.T) {
	for _, c := range []struct {
		payload, reads int
	}{{0, 1}, {100, 1}, {3000, 1}, {20000, 2}} {
		var wire bytes.Buffer
		if err := WriteFrame(&wire, FramePacket{Index: 7, Payload: bytes.Repeat([]byte{0xA5}, c.payload)}); err != nil {
			t.Fatal(err)
		}
		conn := &readCounter{ReadWriter: struct {
			io.Reader
			io.Writer
		}{&wire, io.Discard}}
		f, err := NewClient(conn).RecvFrame()
		if err != nil || f.Index != 7 || len(f.Payload) != c.payload {
			t.Fatalf("payload %d B: frame %d with %d B, err %v", c.payload, f.Index, len(f.Payload), err)
		}
		if conn.reads != c.reads {
			t.Errorf("payload %d B: RecvFrame made %d reads, want %d", c.payload, conn.reads, c.reads)
		}
	}
}
