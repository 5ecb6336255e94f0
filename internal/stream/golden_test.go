package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"gamestreamsr/internal/frame"
)

// writeAny encodes a decoded message with the writer of its type.
func writeAny(w io.Writer, m Msg) error {
	switch m.Type {
	case MsgHello:
		return WriteHello(w, *m.Hello)
	case MsgAccept:
		return WriteAccept(w, *m.Accept)
	case MsgReject:
		return WriteReject(w, *m.Reject)
	case MsgFrame:
		return WriteFrame(w, *m.Frame)
	case MsgInput:
		return WriteInput(w, *m.Input)
	case MsgStats:
		return WriteStats(w, *m.Stats)
	case MsgPing:
		return WritePing(w, *m.Ping)
	case MsgPong:
		return WritePong(w, *m.Pong)
	case MsgBye:
		return WriteBye(w)
	}
	return fmt.Errorf("no writer for %v", m.Type)
}

const (
	goldenUS    = 1700000000000000
	goldenToken = "00112233445566778899aabb"
)

// wireGoldens pins the one wire format, a message of every type. The hex
// strings were not written by this code: all but the two Hellos were
// printed by the encoders of commit 07310cd, the last one to carry protocol
// versions 1-4, from these same values, version 4 being its newest (a
// throw-away test in a `git archive` copy of that commit calling WriteHello
// … WriteBye and printing %x). That a version-4 session puts the same bytes
// on the wire before and after the collapse to one format is therefore
// checked here, not asserted. Version 5 changed only the Hello: the
// version-4 goldens lost their channel field (an empty one, and "arena"
// with its length byte) and carry 5 in the version byte, the length prefix
// shrinking to match — worked by hand from the version-4 bytes, which
// FuzzReadMsg keeps as a seed. Version 6 changed the codec inside frame
// payloads and no message: the two Hellos carry 6 in the version byte,
// re-recorded by hand from the version-5 bytes. tail marks the messages that
// must ignore bytes after their last known field.
var wireGoldens = []struct {
	name string
	hex  string
	msg  Msg
	tail bool
}{
	{"hello", "010f0273384002068080f9c0c1c4820300",
		Msg{Type: MsgHello, Hello: &Hello{Device: "s8", RoIWindow: 64, Scale: 2, Version: 6, SendUnixMicro: goldenUS}}, true},
	{"hello+token", "01270273384002068080f9c0c1c4820318303031313232333334343535363637373838393961616262",
		Msg{Type: MsgHello, Hello: &Hello{Device: "s8", RoIWindow: 64, Scale: 2, Version: 6, SendUnixMicro: goldenUS, ResumeToken: goldenToken}}, true},
	{"accept", "0218800ad0050c0604e480f9c0c1c48203fa81f9c0c1c4820300",
		Msg{Type: MsgAccept, Accept: &Accept{Width: 1280, Height: 720, GOPSize: 12, QStep: 6, Version: 4, RecvUnixMicro: goldenUS + 100, SendUnixMicro: goldenUS + 250}}, true},
	{"accept+token", "0230800ad0050c0604e480f9c0c1c48203fa81f9c0c1c4820318303031313232333334343535363637373838393961616262",
		Msg{Type: MsgAccept, Accept: &Accept{Width: 1280, Height: 720, GOPSize: 12, QStep: 6, Version: 4, RecvUnixMicro: goldenUS + 100, SendUnixMicro: goldenUS + 250, Token: goldenToken}}, true},
	{"reject+retry-after", "061d01196e6f20534c4f2068656164726f6f6d3a207039392032316d73d00f",
		Msg{Type: MsgReject, Reject: &Reject{Code: RejectBusy, Reason: "no SLO headroom: p99 21ms", RetryAfterMs: 2000}}, true},
	{"frame key", "031f0003018080f9c0c1c48203c002b40140400d696e7472612d7061796c6f6164",
		Msg{Type: MsgFrame, Frame: &FramePacket{Index: 0, Keyenc: true, FlightID: 1, SendUnixMicro: goldenUS, RoI: frame.Rect{X: 320, Y: 180, W: 64, H: 64}, Payload: []byte("intra-payload")}}, false},
	{"frame non-key", "0317070208b68f80c1c1c48203ac02aa01404005696e746572",
		Msg{Type: MsgFrame, Frame: &FramePacket{Index: 7, FlightID: 8, SendUnixMicro: goldenUS + 116662, RoI: frame.Rect{X: 300, Y: 170, W: 64, H: 64}, Payload: []byte("inter")}}, false},
	{"frame without trace identity", "030b0700010203040464617461",
		Msg{Type: MsgFrame, Frame: &FramePacket{Index: 7, RoI: frame.Rect{X: 1, Y: 2, W: 3, H: 4}, Payload: []byte("data")}}, false},
	{"input", "040e090c6d6f76652d666f7277617264",
		Msg{Type: MsgInput, Input: &InputPacket{Seq: 9, Payload: []byte("move-forward")}}, false},
	{"stats", "0712033c0205b817d836a01fa846d08c0198f201",
		Msg{Type: MsgStats, Stats: &StatsPacket{Seq: 3, WindowFrames: 60, Dropped: 2, Misses: 5,
			DecodeP50: 3 * time.Millisecond, DecodeP99: 7 * time.Millisecond,
			SRP50: 4 * time.Millisecond, SRP99: 9 * time.Millisecond,
			AgeP50: 18 * time.Millisecond, AgeP99: 31 * time.Millisecond}}, false},
	{"ping", "0909038080f9c0c1c48203", Msg{Type: MsgPing, Ping: &PingPacket{Seq: 3, SendUnixMicro: goldenUS}}, false},
	{"pong", "0a09038080f9c0c1c48203", Msg{Type: MsgPong, Pong: &PongPacket{Seq: 3, EchoUnixMicro: goldenUS}}, false},
	{"bye", "0500", Msg{Type: MsgBye}, false},
}

// withTail re-frames a golden message with junk appended to its body — what
// a later format's extra fields look like to this one.
func withTail(t *testing.T, wire []byte) []byte {
	t.Helper()
	n, used := binary.Uvarint(wire[1:])
	if used <= 0 || int(n) != len(wire)-1-used {
		t.Fatalf("bad framing: %x", wire)
	}
	body := append(append([]byte(nil), wire[1+used:]...), 0xFF, 0x80, 0x00, 'x')
	out := binary.AppendUvarint([]byte{wire[0]}, uint64(len(body)))
	return append(out, body...)
}

func TestWireGolden(t *testing.T) {
	for _, g := range wireGoldens {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := writeAny(&buf, g.msg); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s encodes to\n%x, the golden is\n%x", g.name, buf.Bytes(), want)
		}
		wires := [][]byte{want}
		if g.tail {
			wires = append(wires, withTail(t, want))
		}
		for _, wire := range wires {
			got, err := ReadMsg(bytes.NewReader(wire))
			if err != nil {
				t.Errorf("%s: %x: %v", g.name, wire, err)
			} else if !reflect.DeepEqual(got, g.msg) {
				t.Errorf("%s: %x decodes to %+v, want %+v", g.name, wire, got, g.msg)
			}
		}
	}
}
