package stream

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/sr"
)

// FuzzReadMsg drives the wire-format parser with arbitrary bytes; the
// invariant is no panic and a well-formed message on success. Message type
// 8, version 4's Subscribe, is unassigned: it must always be a protocol
// error.
func FuzzReadMsg(f *testing.F) {
	for _, g := range wireGoldens {
		wire, err := hex.DecodeString(g.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add([]byte{byte(MsgHello), 0x05, 0x01, 'd', 0x20, 0x02}) // a Hello that stops after two fields
	for _, v4 := range []string{
		// Version 4's Hello with a channel name: it still parses, the
		// channel read as the token, so it can be refused by version.
		"012d0273384002048080f9c0c1c48203056172656e6118303031313232333334343535363637373838393961616262",
		// Version 4's Subscribe.
		"0815056172656e6105706978656c048080f9c0c1c48203",
	} {
		wire, err := hex.DecodeString(v4)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadMsg(bytes.NewReader(data))
		if len(data) > 0 && data[0] == 8 && !errors.Is(err, ErrProtocol) {
			t.Fatalf("type 8 read as %v, %v; want a protocol error", msg.Type, err)
		}
		if err != nil {
			return
		}
		switch msg.Type {
		case MsgHello:
			if msg.Hello == nil || msg.Hello.RoIWindow <= 0 || msg.Hello.Scale != sr.Scale {
				t.Fatal("malformed hello accepted")
			}
		case MsgAccept:
			if msg.Accept == nil || msg.Accept.Width <= 0 {
				t.Fatal("malformed accept accepted")
			}
		case MsgFrame:
			if msg.Frame == nil {
				t.Fatal("frame without body")
			}
		case MsgInput:
			if msg.Input == nil {
				t.Fatal("input without body")
			}
		case MsgStats:
			if msg.Stats == nil {
				t.Fatal("stats without body")
			}
		case MsgReject:
			if msg.Reject == nil {
				t.Fatal("reject without body")
			}
		case MsgPing:
			if msg.Ping == nil {
				t.Fatal("ping without body")
			}
		case MsgPong:
			if msg.Pong == nil {
				t.Fatal("pong without body")
			}
		case MsgBye:
		default:
			t.Fatalf("unknown type %v accepted", msg.Type)
		}
	})
}

// --- Round-trip fuzz + property tests ----------------------------------------
//
// Every message type must decode back to what was encoded (after
// normalisation: timestamps clamp at 0, durations truncate to the wire's µs
// granularity) and re-encode to identical bytes — the canonical-form
// property.

// roundTrip encodes in, decodes it via ReadMsg, asserts the decoded message
// re-encodes byte-identically, and returns it.
func roundTrip(t *testing.T, in Msg) *Msg {
	t.Helper()
	var buf bytes.Buffer
	if err := writeAny(&buf, in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	wire := append([]byte(nil), buf.Bytes()...)
	msg, err := ReadMsg(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var again bytes.Buffer
	if err := writeAny(&again, msg); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(wire, again.Bytes()) {
		t.Fatalf("not canonical:\n first %v\nsecond %v", wire, again.Bytes())
	}
	return &msg
}

// sanitizePos maps an arbitrary int into [1, 1<<20] (uvarint fields that
// must be positive).
func sanitizePos(v int) int {
	if v < 0 {
		v = -(v + 1)
	}
	return v%(1<<20) + 1
}

// sanitizeNonNeg maps an arbitrary int into [0, 1<<20].
func sanitizeNonNeg(v int) int {
	if v < 0 {
		v = -(v + 1)
	}
	return v % (1<<20 + 1)
}

func helloRoundTrip(t *testing.T, h Hello) {
	if len(h.Device) > 255 {
		h.Device = h.Device[:255]
	}
	if len(h.ResumeToken) > 255 {
		h.ResumeToken = h.ResumeToken[:255]
	}
	h.RoIWindow = sanitizePos(h.RoIWindow)
	h.Version = sanitizeNonNeg(h.Version)
	// Every Scale but the client's is refused as a protocol error; the
	// round trip then runs at ×2.
	if h.Scale != sr.Scale {
		var buf bytes.Buffer
		if err := WriteHello(&buf, h); err != nil {
			t.Fatalf("encode: %v", err)
		}
		if _, err := ReadMsg(&buf); !errors.Is(err, ErrProtocol) {
			t.Fatalf("hello with scale %d read with err %v, want a protocol error", h.Scale, err)
		}
		h.Scale = sr.Scale
	}
	want := h
	want.SendUnixMicro = max(want.SendUnixMicro, 0)
	msg := roundTrip(t, Msg{Type: MsgHello, Hello: &h})
	if *msg.Hello != want {
		t.Fatalf("hello = %+v, want %+v", *msg.Hello, want)
	}
}

func FuzzHelloRoundTrip(f *testing.F) {
	f.Add("s8", 64, 2, 2, int64(1700000000000000), "")
	f.Add("", 1, 1, 0, int64(0), "")
	f.Add("pixel", 300, 4, 7, int64(-5), "deadbeefcafe")
	f.Add("s8", 64, 2, 4, int64(1700000000000000), "")
	f.Add("s8", 64, 2, 5, int64(1700000000000000), "00112233445566778899aabb")
	f.Fuzz(func(t *testing.T, dev string, roi, scale, ver int, sendUS int64, token string) {
		helloRoundTrip(t, Hello{Device: dev, RoIWindow: roi, Scale: scale, Version: ver, SendUnixMicro: sendUS, ResumeToken: token})
	})
}

func acceptRoundTrip(t *testing.T, a Accept) {
	a.Width, a.Height = sanitizePos(a.Width), sanitizePos(a.Height)
	a.GOPSize, a.QStep = sanitizePos(a.GOPSize), sanitizePos(a.QStep)
	a.Version = sanitizeNonNeg(a.Version)
	if len(a.Token) > 255 {
		a.Token = a.Token[:255]
	}
	want := a
	want.RecvUnixMicro = max(want.RecvUnixMicro, 0)
	want.SendUnixMicro = max(want.SendUnixMicro, 0)
	msg := roundTrip(t, Msg{Type: MsgAccept, Accept: &a})
	if *msg.Accept != want {
		t.Fatalf("accept = %+v, want %+v", *msg.Accept, want)
	}
}

func FuzzAcceptRoundTrip(f *testing.F) {
	f.Add(1280, 720, 60, 6, 2, int64(10), int64(20), "")
	f.Add(1, 1, 1, 1, 0, int64(0), int64(0), "")
	f.Add(1280, 720, 60, 6, 4, int64(10), int64(20), "deadbeefcafe")
	f.Fuzz(func(t *testing.T, w, h, gop, q, ver int, recvUS, sendUS int64, token string) {
		acceptRoundTrip(t, Accept{Width: w, Height: h, GOPSize: gop, QStep: q, Version: ver, RecvUnixMicro: recvUS, SendUnixMicro: sendUS, Token: token})
	})
}

func frameRoundTrip(t *testing.T, p FramePacket) {
	p.RoI = frame.Rect{X: sanitizeNonNeg(p.RoI.X), Y: sanitizeNonNeg(p.RoI.Y), W: sanitizeNonNeg(p.RoI.W), H: sanitizeNonNeg(p.RoI.H)}
	// A negative timestamp would flip the extension bit on encode but clamp
	// to an unextended-looking packet on decode; the writer API contract is
	// "0 means absent", so normalise before encoding.
	p.SendUnixMicro = max(p.SendUnixMicro, 0)
	want := p
	msg := roundTrip(t, Msg{Type: MsgFrame, Frame: &p})
	got := *msg.Frame
	if !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("payload = %q, want %q", got.Payload, want.Payload)
	}
	if got.Index != want.Index || got.Keyenc != want.Keyenc || got.FlightID != want.FlightID ||
		got.SendUnixMicro != want.SendUnixMicro || got.RoI != want.RoI {
		t.Fatalf("frame = %+v, want %+v", got, want)
	}
}

func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint32(7), true, uint64(0), int64(0), 1, 2, 3, 4, []byte("data"))
	f.Add(uint32(9), false, uint64(12), int64(1700000000000000), 0, 0, 64, 64, []byte{})
	f.Add(uint32(0), false, uint64(0), int64(-3), 0, 0, 0, 0, []byte("x"))
	f.Fuzz(func(t *testing.T, idx uint32, key bool, fid uint64, sendUS int64, x, y, w, h int, payload []byte) {
		frameRoundTrip(t, FramePacket{Index: idx, Keyenc: key, FlightID: fid, SendUnixMicro: sendUS,
			RoI: frame.Rect{X: x, Y: y, W: w, H: h}, Payload: payload})
	})
}

func inputRoundTrip(t *testing.T, in InputPacket) {
	msg := roundTrip(t, Msg{Type: MsgInput, Input: &in})
	if msg.Input.Seq != in.Seq || !bytes.Equal(msg.Input.Payload, in.Payload) {
		t.Fatalf("input = %+v, want %+v", *msg.Input, in)
	}
}

func FuzzInputRoundTrip(f *testing.F) {
	f.Add(uint32(9), []byte("in"))
	f.Add(uint32(0), []byte{})
	f.Fuzz(func(t *testing.T, seq uint32, payload []byte) {
		inputRoundTrip(t, InputPacket{Seq: seq, Payload: payload})
	})
}

// sanitizeDur maps an arbitrary µs count into a non-negative duration of
// whole µs — the wire's granularity.
func sanitizeDur(us int64) time.Duration {
	if us < 0 {
		return 0
	}
	return time.Duration(us%(1<<40)) * time.Microsecond
}

func statsRoundTrip(t *testing.T, st StatsPacket) {
	st.DecodeP50, st.DecodeP99 = sanitizeDur(int64(st.DecodeP50)), sanitizeDur(int64(st.DecodeP99))
	st.SRP50, st.SRP99 = sanitizeDur(int64(st.SRP50)), sanitizeDur(int64(st.SRP99))
	st.AgeP50, st.AgeP99 = sanitizeDur(int64(st.AgeP50)), sanitizeDur(int64(st.AgeP99))
	msg := roundTrip(t, Msg{Type: MsgStats, Stats: &st})
	if *msg.Stats != st {
		t.Fatalf("stats = %+v, want %+v", *msg.Stats, st)
	}
}

func FuzzStatsRoundTrip(f *testing.F) {
	f.Add(uint32(1), uint32(60), uint32(0), uint32(2), int64(3000), int64(7000), int64(4000), int64(9000), int64(18000), int64(31000))
	f.Add(uint32(0), uint32(0), uint32(0), uint32(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(-1))
	f.Fuzz(func(t *testing.T, seq, wf, drop, miss uint32, d50, d99, s50, s99, a50, a99 int64) {
		statsRoundTrip(t, StatsPacket{Seq: seq, WindowFrames: wf, Dropped: drop, Misses: miss,
			DecodeP50: time.Duration(d50), DecodeP99: time.Duration(d99),
			SRP50: time.Duration(s50), SRP99: time.Duration(s99),
			AgeP50: time.Duration(a50), AgeP99: time.Duration(a99)})
	})
}

func rejectRoundTrip(t *testing.T, rej Reject) {
	if len(rej.Reason) > 255 {
		rej.Reason = rej.Reason[:255]
	}
	msg := roundTrip(t, Msg{Type: MsgReject, Reject: &rej})
	if *msg.Reject != rej {
		t.Fatalf("reject = %+v, want %+v", *msg.Reject, rej)
	}
}

func FuzzRejectRoundTrip(f *testing.F) {
	f.Add(uint8(1), "busy", uint32(0))
	f.Add(uint8(0), "", uint32(0))
	f.Add(uint8(1), "busy", uint32(2000))
	f.Fuzz(func(t *testing.T, code uint8, reason string, retryMs uint32) {
		rejectRoundTrip(t, Reject{Code: RejectCode(code), Reason: reason, RetryAfterMs: retryMs})
	})
}

func pingRoundTrip(t *testing.T, p PingPacket) {
	p.SendUnixMicro = max(p.SendUnixMicro, 0)
	msg := roundTrip(t, Msg{Type: MsgPing, Ping: &p})
	if *msg.Ping != p {
		t.Fatalf("ping = %+v, want %+v", *msg.Ping, p)
	}
}

func pongRoundTrip(t *testing.T, p PongPacket) {
	p.EchoUnixMicro = max(p.EchoUnixMicro, 0)
	msg := roundTrip(t, Msg{Type: MsgPong, Pong: &p})
	if *msg.Pong != p {
		t.Fatalf("pong = %+v, want %+v", *msg.Pong, p)
	}
}

func FuzzPingPongRoundTrip(f *testing.F) {
	f.Add(uint32(1), int64(1700000000000000))
	f.Add(uint32(0), int64(0))
	f.Add(uint32(1<<30), int64(-7))
	f.Fuzz(func(t *testing.T, seq uint32, us int64) {
		pingRoundTrip(t, PingPacket{Seq: seq, SendUnixMicro: us})
		pongRoundTrip(t, PongPacket{Seq: seq, EchoUnixMicro: us})
	})
}

// TestWireProperties drives the same round-trip invariants with
// testing/quick's generator — the property-test complement to the fuzz
// corpus, run on every plain `go test`.
func TestWireProperties(t *testing.T) {
	if err := quick.Check(func(dev string, roi, scale, ver int, sendUS int64, token string) bool {
		helloRoundTrip(t, Hello{Device: dev, RoIWindow: roi, Scale: scale, Version: ver, SendUnixMicro: sendUS, ResumeToken: token})
		return !t.Failed()
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(w, h, gop, q, ver int, recvUS, sendUS int64, token string) bool {
		acceptRoundTrip(t, Accept{Width: w, Height: h, GOPSize: gop, QStep: q, Version: ver, RecvUnixMicro: recvUS, SendUnixMicro: sendUS, Token: token})
		return !t.Failed()
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(idx uint32, key bool, fid uint64, sendUS int64, x, y, w, h int, payload []byte) bool {
		frameRoundTrip(t, FramePacket{Index: idx, Keyenc: key, FlightID: fid, SendUnixMicro: sendUS,
			RoI: frame.Rect{X: x, Y: y, W: w, H: h}, Payload: payload})
		return !t.Failed()
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(seq, wf, drop, miss uint32, d50, d99, s50, s99, a50, a99 int64) bool {
		statsRoundTrip(t, StatsPacket{Seq: seq, WindowFrames: wf, Dropped: drop, Misses: miss,
			DecodeP50: time.Duration(d50), DecodeP99: time.Duration(d99),
			SRP50: time.Duration(s50), SRP99: time.Duration(s99),
			AgeP50: time.Duration(a50), AgeP99: time.Duration(a99)})
		return !t.Failed()
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(code uint8, reason string, retryMs uint32) bool {
		rejectRoundTrip(t, Reject{Code: RejectCode(code), Reason: reason, RetryAfterMs: retryMs})
		return !t.Failed()
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(seq uint32, us int64) bool {
		pingRoundTrip(t, PingPacket{Seq: seq, SendUnixMicro: us})
		pongRoundTrip(t, PongPacket{Seq: seq, EchoUnixMicro: us})
		return !t.Failed()
	}, nil); err != nil {
		t.Error(err)
	}
}
