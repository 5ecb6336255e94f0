// Package stream implements the wire protocol between the GameStreamSR
// server and client — the role Sunshine and Moonlight (NVIDIA GameStream
// protocol) play in the paper's software setup (§V-A). It is a small
// length-prefixed message protocol over any reliable byte stream:
//
//	client → server  Hello     (device name, RoI window, scale, protocol
//	                            version, client clock, publish-channel name,
//	                            resume token)
//	client → server  Subscribe (spectate an existing publish channel instead
//	                            of opening a game session)
//	server → client  Accept    (stream geometry, protocol version, server
//	                            clock pair, resume token)
//	server → client  Reject    (refusal: reason code + detail, optional
//	                            retry-after hint, then close)
//	server → client  Frame     (index, codec frame type, flight ID + send
//	                            time, RoI coords, payload)
//	client → server  Input     (sequence number, opaque input event payload)
//	client → server  Stats     (periodic client-side latency/age percentiles
//	                            and drop counts — the telemetry backchannel)
//	either direction Ping/Pong (liveness heartbeat; the pong echoes the
//	                            ping's sequence number and timestamp)
//	either direction Bye       (clean shutdown)
//
// The RoI coordinates riding alongside each frame are the paper's Fig. 6
// step ❺: the depth-guided RoI is computed on the server and shipped with
// the compressed frame so the client knows which region to route to the NPU.
//
// There is one wire format (DESIGN.md §13 has the field-by-field table) and
// one version number, ProtocolVersion. A Hello or Subscribe announcing any
// other version is refused with a typed Reject. Hello, Accept, Subscribe and
// Reject ignore bytes after their last known field, so a later format can
// append fields and still be understood well enough to be refused by name;
// every other message is parsed exactly.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"gamestreamsr/internal/frame"
)

// ProtocolVersion is the one protocol version this build speaks: the number
// a Hello or Subscribe announces and an Accept echoes. A peer announcing any
// other number is refused (RejectBadHello).
const ProtocolVersion = 4

// MsgType identifies a protocol message.
type MsgType uint8

// Message types.
const (
	MsgHello MsgType = iota + 1
	MsgAccept
	MsgFrame
	MsgInput
	MsgBye
	MsgReject
	MsgStats
	MsgSubscribe
	MsgPing
	MsgPong
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgAccept:
		return "accept"
	case MsgFrame:
		return "frame"
	case MsgInput:
		return "input"
	case MsgBye:
		return "bye"
	case MsgReject:
		return "reject"
	case MsgStats:
		return "stats"
	case MsgSubscribe:
		return "subscribe"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// MaxBody bounds a message body; anything larger is rejected as corrupt.
const MaxBody = 16 << 20

// maxOpeningBody bounds the body of a connection's first message, read before
// the peer is known to be a client at all: a Hello or a Subscribe is at most
// three 255-byte strings with their length prefixes plus four uvarints (well
// under 900 bytes), and the remainder is room for fields a later format
// appends.
const maxOpeningBody = 1024

// ErrProtocol wraps all wire-format violations.
var ErrProtocol = errors.New("stream: protocol error")

// Hello is the client's opening message: its identity and the §IV-B1
// capability probe result (Fig. 6 step ❶), plus the client's send timestamp,
// which the server answers with the Accept's clock pair.
type Hello struct {
	Device    string
	RoIWindow int
	Scale     int
	// Version is the protocol version the client speaks. Client.Handshake
	// fills in ProtocolVersion when it is zero; WriteHello writes what it
	// is given.
	Version int
	// SendUnixMicro is the client's clock (µs since the Unix epoch) when
	// the Hello was written — T0 of the Cristian offset estimate. Filled
	// by Client.Handshake when zero.
	SendUnixMicro int64
	// Channel, when non-empty, registers this session as the publisher of
	// the named relay channel: spectators can then attach to the same
	// encoded GOP stream with a Subscribe. Empty means a solo session.
	Channel string
	// ResumeToken, when non-empty, replays the opaque token a previous
	// Accept issued: the server correlates this connection with
	// the earlier session (flight records, per-session metrics) and, if the
	// session published a channel that is still parked within its grace
	// window, hands the channel back with its subscribers intact. Empty
	// means a fresh session.
	ResumeToken string
}

// RejectCode classifies why the server refused a session.
type RejectCode uint8

// Reject codes.
const (
	// RejectBusy: admission control found no SLO headroom — retry later.
	RejectBusy RejectCode = iota + 1
	// RejectCapacity: the hard session cap is reached.
	RejectCapacity
	// RejectBadHello: the Hello failed validation.
	RejectBadHello
	// RejectUnknownChannel: a Subscribe named a channel with no live
	// publisher.
	RejectUnknownChannel
	// RejectChannelTaken: a Hello tried to publish under a channel name
	// that already has a live publisher.
	RejectChannelTaken
)

func (c RejectCode) String() string {
	switch c {
	case RejectBusy:
		return "busy"
	case RejectCapacity:
		return "capacity"
	case RejectBadHello:
		return "bad-hello"
	case RejectUnknownChannel:
		return "unknown-channel"
	case RejectChannelTaken:
		return "channel-taken"
	default:
		return fmt.Sprintf("RejectCode(%d)", uint8(c))
	}
}

// Reject is the server's refusal: sent instead of Accept (or instead of a
// silent close before the handshake), then the connection closes.
type Reject struct {
	Code   RejectCode
	Reason string
	// RetryAfterMs, when non-zero on a Busy or Capacity reject, is the
	// server's hint for how long the client should back off before
	// redialling (milliseconds). Zero is not encoded.
	RetryAfterMs uint32
}

// RejectedError is what Client.Handshake returns when the server answered
// with a Reject — typed so callers can distinguish "busy, retry later"
// from protocol failures, and carrying the server's human-readable reason
// so operators see *why* ("no SLO headroom: p99 …"), not just the code.
type RejectedError struct {
	Code   RejectCode
	Reason string
	// RetryAfter is the server-suggested redial delay (0 when the server
	// gave none); meaningful on RejectBusy.
	RetryAfter time.Duration
}

func (e *RejectedError) Error() string {
	s := fmt.Sprintf("stream: rejected (%v)", e.Code)
	if e.Reason != "" {
		s += ": " + e.Reason
	}
	if e.RetryAfter > 0 {
		s += fmt.Sprintf(" (retry after %v)", e.RetryAfter)
	}
	return s
}

// Accept is the server's handshake reply describing the stream, with the
// server's receive/send clock pair (T1, T2) that completes the client's
// offset + RTT estimate.
type Accept struct {
	Width, Height int
	GOPSize       int
	QStep         int
	// Version is the protocol version the server speaks; the session fills
	// it in, callers configuring a server leave it zero.
	Version int
	// RecvUnixMicro is the server's clock when the Hello arrived (T1).
	RecvUnixMicro int64
	// SendUnixMicro is the server's clock when the Accept was written (T2).
	SendUnixMicro int64
	// Token is the opaque resume token: a reconnecting client replays it
	// in its Hello so the server correlates the connections as one logical
	// session and a publisher can reclaim its parked channel. Empty when
	// the server issues none (spectators get none).
	Token string
}

// FramePacket carries one coded frame plus its RoI coordinates, the
// server's flight-recorder frame ID and the server clock at send time, so
// the frame keeps one identity from the server's encode spans to the
// client's present span and the client can compute a clock-corrected
// end-to-end frame age.
type FramePacket struct {
	Index  uint32
	Keyenc bool // reference (intra) frame
	// FlightID is the server flight recorder's ID for this frame (0 when
	// the server records no flight). The client's recorder adopts it, so
	// the two processes' dumps correlate by ID.
	FlightID uint64
	// SendUnixMicro is the server's clock (µs since the Unix epoch) just
	// before the frame hit the socket.
	SendUnixMicro int64
	RoI           frame.Rect
	Payload       []byte
}

// frame flags-byte bits.
const (
	frameFlagKey      = 1 << 0 // reference (intra) frame
	frameFlagExtended = 1 << 1 // flight ID + send timestamp follow
)

// InputPacket carries one user-input event.
type InputPacket struct {
	Seq     uint32
	Payload []byte
}

// StatsPacket is the telemetry backchannel: a periodic client → server
// report of client-observed quality, piggybacked on the input path. The
// percentiles are computed over the client's recent window (WindowFrames
// frames); Dropped and Misses are cumulative for the session, so the
// server can difference successive reports.
type StatsPacket struct {
	Seq          uint32
	WindowFrames uint32 // frames in the percentile window of this report
	Dropped      uint32 // cumulative frames lost (index gaps + decode failures)
	Misses       uint32 // cumulative client-side deadline misses
	// Client-side stage latencies over the window.
	DecodeP50, DecodeP99 time.Duration
	SRP50, SRP99         time.Duration
	// End-to-end frame age (server send → client present, clock-offset
	// corrected) over the window.
	AgeP50, AgeP99 time.Duration
}

// Subscribe is a client's request to spectate an existing publish channel
// instead of opening a game session: the server replies with the channel's
// cached Accept geometry, replays the cached keyframe and fans the live GOP
// tail out to the subscriber. Like a Hello it carries the client's version
// and send timestamp, so spectators get the same clock sync as players.
type Subscribe struct {
	// Channel names the publish channel to attach to (required).
	Channel string
	// Device identifies the spectator (shows up in logs and flight dumps).
	Device string
	// Version is the protocol version the subscriber speaks
	// (Client.Subscribe fills in ProtocolVersion when it is zero).
	Version int
	// SendUnixMicro is the subscriber's clock when the Subscribe was
	// written — T0 of its Cristian offset estimate.
	SendUnixMicro int64
}

// PingPacket is a liveness probe. Either endpoint may send one at any
// point after the handshake; the receiver must answer with a Pong echoing
// Seq and SendUnixMicro. The timestamp is the *pinger's* clock — the
// responder never interprets it, so RTT sampling needs no clock sync.
type PingPacket struct {
	Seq           uint32
	SendUnixMicro int64
}

// PongPacket answers a Ping: Seq and EchoUnixMicro are copied from the
// ping, so the pinger computes RTT = now − EchoUnixMicro on its own clock
// and matches responses to probes by sequence number.
type PongPacket struct {
	Seq           uint32
	EchoUnixMicro int64
}

// writeMsg frames a message body.
func writeMsg(w io.Writer, t MsgType, body []byte) error {
	if len(body) > MaxBody {
		return fmt.Errorf("%w: body %d exceeds limit", ErrProtocol, len(body))
	}
	hdr := make([]byte, 1, 1+binary.MaxVarintLen32)
	hdr[0] = byte(t)
	hdr = binary.AppendUvarint(hdr, uint64(len(body)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(body) == 0 {
		// Skip empty writes: synchronous transports (net.Pipe) block a
		// zero-length Write until a matching Read that will never come.
		return nil
	}
	_, err := w.Write(body)
	return err
}

// readMsg reads one framed message whose body is at most limit bytes.
func readMsg(r io.Reader, limit int) (MsgType, []byte, error) {
	var tb [1]byte
	if _, err := io.ReadFull(r, tb[:]); err != nil {
		return 0, nil, err
	}
	br := byteReader{r: r}
	n, err := binary.ReadUvarint(&br)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: bad length: %v", ErrProtocol, err)
	}
	if n > uint64(limit) {
		return 0, nil, fmt.Errorf("%w: body %d exceeds limit %d", ErrProtocol, n, limit)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("%w: short body: %v", ErrProtocol, err)
	}
	return MsgType(tb[0]), body, nil
}

type byteReader struct{ r io.Reader }

func (b *byteReader) ReadByte() (byte, error) {
	var buf [1]byte
	_, err := io.ReadFull(b.r, buf[:])
	return buf[0], err
}

// --- message bodies -----------------------------------------------------------

// WriteHello sends a Hello message: the device name (one length byte + raw
// bytes), four uvarints (RoI window, scale, version, send timestamp), then
// the channel name and the resume token (uvarint length + raw bytes each,
// empty when unset).
func WriteHello(w io.Writer, h Hello) error {
	if len(h.Device) > 255 {
		return fmt.Errorf("%w: device name too long", ErrProtocol)
	}
	if len(h.Channel) > 255 {
		return fmt.Errorf("%w: channel name too long", ErrProtocol)
	}
	if len(h.ResumeToken) > 255 {
		return fmt.Errorf("%w: resume token too long", ErrProtocol)
	}
	body := []byte{byte(len(h.Device))}
	body = append(body, h.Device...)
	body = binary.AppendUvarint(body, uint64(h.RoIWindow))
	body = binary.AppendUvarint(body, uint64(h.Scale))
	body = binary.AppendUvarint(body, uint64(h.Version))
	body = binary.AppendUvarint(body, clampMicro(h.SendUnixMicro))
	body = binary.AppendUvarint(body, uint64(len(h.Channel)))
	body = append(body, h.Channel...)
	body = binary.AppendUvarint(body, uint64(len(h.ResumeToken)))
	body = append(body, h.ResumeToken...)
	return writeMsg(w, MsgHello, body)
}

func parseHello(body []byte) (Hello, error) {
	var h Hello
	var ok bool
	if h.Device, body, ok = readByteLenString(body); !ok {
		return h, fmt.Errorf("%w: truncated device name", ErrProtocol)
	}
	vals, rest, err := readUvarintsRest(body, 4)
	if err != nil {
		return h, err
	}
	h.RoIWindow, h.Scale = int(vals[0]), int(vals[1])
	h.Version, h.SendUnixMicro = int(vals[2]), int64(vals[3])
	if h.Channel, rest, ok = readLenBytes(rest); !ok {
		return h, fmt.Errorf("%w: truncated channel name", ErrProtocol)
	}
	// Bytes after the token belong to a later format and are ignored.
	if h.ResumeToken, _, ok = readLenBytes(rest); !ok {
		return h, fmt.Errorf("%w: truncated resume token", ErrProtocol)
	}
	if h.RoIWindow <= 0 || h.Scale <= 0 {
		return h, fmt.Errorf("%w: non-positive hello fields", ErrProtocol)
	}
	return h, nil
}

// readLenBytes reads one uvarint-length-prefixed byte string, returning it
// plus the unread remainder. ok is false on truncation (a length promising
// more bytes than the body holds, or a missing or malformed length varint).
func readLenBytes(body []byte) (s string, rest []byte, ok bool) {
	n, m := binary.Uvarint(body)
	if m <= 0 || uint64(len(body)-m) < n {
		return "", nil, false
	}
	body = body[m:]
	return string(body[:n]), body[n:], true
}

// readByteLenString is readLenBytes for the fields whose length prefix is a
// single byte (device names, a Subscribe's channel, a Reject's reason).
func readByteLenString(body []byte) (s string, rest []byte, ok bool) {
	if len(body) < 1 || len(body)-1 < int(body[0]) {
		return "", nil, false
	}
	n := 1 + int(body[0])
	return string(body[1:n]), body[n:], true
}

// WriteSubscribe sends a Subscribe message: channel + device as
// length-prefixed strings, then version + send timestamp as uvarints.
func WriteSubscribe(w io.Writer, s Subscribe) error {
	if s.Channel == "" {
		return fmt.Errorf("%w: subscribe without channel", ErrProtocol)
	}
	if len(s.Channel) > 255 {
		return fmt.Errorf("%w: channel name too long", ErrProtocol)
	}
	if len(s.Device) > 255 {
		return fmt.Errorf("%w: device name too long", ErrProtocol)
	}
	body := []byte{byte(len(s.Channel))}
	body = append(body, s.Channel...)
	body = append(body, byte(len(s.Device)))
	body = append(body, s.Device...)
	body = binary.AppendUvarint(body, uint64(s.Version))
	body = binary.AppendUvarint(body, clampMicro(s.SendUnixMicro))
	return writeMsg(w, MsgSubscribe, body)
}

func parseSubscribe(body []byte) (Subscribe, error) {
	var s Subscribe
	var ok bool
	if s.Channel, body, ok = readByteLenString(body); !ok {
		return s, fmt.Errorf("%w: truncated channel name", ErrProtocol)
	}
	if s.Channel == "" {
		return s, fmt.Errorf("%w: subscribe without channel", ErrProtocol)
	}
	if s.Device, body, ok = readByteLenString(body); !ok {
		return s, fmt.Errorf("%w: truncated device name", ErrProtocol)
	}
	// Bytes after the timestamp belong to a later format and are ignored.
	vals, _, err := readUvarintsRest(body, 2)
	if err != nil {
		return s, err
	}
	s.Version = int(vals[0])
	s.SendUnixMicro = int64(vals[1])
	return s, nil
}

// WriteAccept sends an Accept message: seven uvarints (width, height, GOP
// size, quantizer, version, receive and send timestamps), then the resume
// token (uvarint length + raw bytes, empty when none is issued).
func WriteAccept(w io.Writer, a Accept) error {
	if len(a.Token) > 255 {
		return fmt.Errorf("%w: resume token too long", ErrProtocol)
	}
	var body []byte
	for _, v := range []int{a.Width, a.Height, a.GOPSize, a.QStep, a.Version} {
		body = binary.AppendUvarint(body, uint64(v))
	}
	body = binary.AppendUvarint(body, clampMicro(a.RecvUnixMicro))
	body = binary.AppendUvarint(body, clampMicro(a.SendUnixMicro))
	body = binary.AppendUvarint(body, uint64(len(a.Token)))
	body = append(body, a.Token...)
	return writeMsg(w, MsgAccept, body)
}

func parseAccept(body []byte) (Accept, error) {
	vals, rest, err := readUvarintsRest(body, 7)
	if err != nil {
		return Accept{}, err
	}
	a := Accept{
		Width: int(vals[0]), Height: int(vals[1]), GOPSize: int(vals[2]), QStep: int(vals[3]),
		Version: int(vals[4]), RecvUnixMicro: int64(vals[5]), SendUnixMicro: int64(vals[6]),
	}
	// Bytes after the token belong to a later format and are ignored.
	var ok bool
	if a.Token, _, ok = readLenBytes(rest); !ok {
		return Accept{}, fmt.Errorf("%w: truncated resume token", ErrProtocol)
	}
	if a.Width <= 0 || a.Height <= 0 || a.GOPSize <= 0 || a.QStep <= 0 {
		return Accept{}, fmt.Errorf("%w: non-positive accept fields", ErrProtocol)
	}
	return a, nil
}

// clampMicro guards timestamp encoding: timestamps ride as uvarints, so a
// negative (pre-epoch, i.e. corrupt) value encodes as 0 rather than 2^64-µs.
func clampMicro(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// WriteReject sends a Reject message. A non-zero RetryAfterMs rides as a
// trailing uvarint.
func WriteReject(w io.Writer, rej Reject) error {
	if len(rej.Reason) > 255 {
		rej.Reason = rej.Reason[:255]
	}
	body := []byte{byte(rej.Code), byte(len(rej.Reason))}
	body = append(body, rej.Reason...)
	if rej.RetryAfterMs > 0 {
		body = binary.AppendUvarint(body, uint64(rej.RetryAfterMs))
	}
	return writeMsg(w, MsgReject, body)
}

func parseReject(body []byte) (Reject, error) {
	if len(body) < 1 {
		return Reject{}, fmt.Errorf("%w: empty reject", ErrProtocol)
	}
	rej := Reject{Code: RejectCode(body[0])}
	var rest []byte
	var ok bool
	if rej.Reason, rest, ok = readByteLenString(body[1:]); !ok {
		return Reject{}, fmt.Errorf("%w: truncated reject reason", ErrProtocol)
	}
	if len(rest) > 0 {
		// The retry-after hint; bytes after it belong to a later format and
		// are ignored.
		vals, _, err := readUvarintsRest(rest, 1)
		if err != nil {
			return Reject{}, err
		}
		rej.RetryAfterMs = uint32(vals[0])
	}
	return rej, nil
}

// WritePing sends a liveness probe.
func WritePing(w io.Writer, p PingPacket) error {
	body := binary.AppendUvarint(nil, uint64(p.Seq))
	body = binary.AppendUvarint(body, clampMicro(p.SendUnixMicro))
	return writeMsg(w, MsgPing, body)
}

func parsePing(body []byte) (PingPacket, error) {
	vals, err := readUvarints(body, 2)
	if err != nil {
		return PingPacket{}, err
	}
	return PingPacket{Seq: uint32(vals[0]), SendUnixMicro: int64(vals[1])}, nil
}

// WritePong answers a Ping, echoing its sequence number and timestamp.
func WritePong(w io.Writer, p PongPacket) error {
	body := binary.AppendUvarint(nil, uint64(p.Seq))
	body = binary.AppendUvarint(body, clampMicro(p.EchoUnixMicro))
	return writeMsg(w, MsgPong, body)
}

func parsePong(body []byte) (PongPacket, error) {
	vals, err := readUvarints(body, 2)
	if err != nil {
		return PongPacket{}, err
	}
	return PongPacket{Seq: uint32(vals[0]), EchoUnixMicro: int64(vals[1])}, nil
}

// WriteFrame sends a FramePacket. When the packet carries trace identity
// (a flight ID or send timestamp — every frame a session sends does), the
// flags byte's extension bit is set and the two fields ride between the
// flags and the RoI; a packet with neither leaves both out.
func WriteFrame(w io.Writer, f FramePacket) error {
	body := binary.AppendUvarint(nil, uint64(f.Index))
	extended := f.FlightID != 0 || f.SendUnixMicro != 0
	var flags byte
	if f.Keyenc {
		flags |= frameFlagKey
	}
	if extended {
		flags |= frameFlagExtended
	}
	body = append(body, flags)
	if extended {
		body = binary.AppendUvarint(body, f.FlightID)
		body = binary.AppendUvarint(body, clampMicro(f.SendUnixMicro))
	}
	for _, v := range []int{f.RoI.X, f.RoI.Y, f.RoI.W, f.RoI.H} {
		body = binary.AppendUvarint(body, uint64(v))
	}
	body = binary.AppendUvarint(body, uint64(len(f.Payload)))
	body = append(body, f.Payload...)
	return writeMsg(w, MsgFrame, body)
}

func parseFrame(body []byte) (FramePacket, error) {
	var f FramePacket
	idx, n := binary.Uvarint(body)
	if n <= 0 {
		return f, fmt.Errorf("%w: bad frame index", ErrProtocol)
	}
	f.Index = uint32(idx)
	body = body[n:]
	if len(body) < 1 {
		return f, fmt.Errorf("%w: truncated frame flags", ErrProtocol)
	}
	flags := body[0]
	f.Keyenc = flags&frameFlagKey != 0
	body = body[1:]
	if flags&frameFlagExtended != 0 {
		vals, rest, err := readUvarintsRest(body, 2)
		if err != nil {
			return f, err
		}
		f.FlightID = vals[0]
		f.SendUnixMicro = int64(vals[1])
		body = rest
	}
	vals, rest, err := readUvarintsRest(body, 5)
	if err != nil {
		return f, err
	}
	f.RoI = frame.Rect{X: int(vals[0]), Y: int(vals[1]), W: int(vals[2]), H: int(vals[3])}
	plen := int(vals[4])
	if plen != len(rest) {
		return f, fmt.Errorf("%w: payload length %d != %d", ErrProtocol, plen, len(rest))
	}
	f.Payload = rest
	return f, nil
}

// WriteInput sends an InputPacket.
func WriteInput(w io.Writer, in InputPacket) error {
	body := binary.AppendUvarint(nil, uint64(in.Seq))
	body = binary.AppendUvarint(body, uint64(len(in.Payload)))
	body = append(body, in.Payload...)
	return writeMsg(w, MsgInput, body)
}

func parseInput(body []byte) (InputPacket, error) {
	var in InputPacket
	vals, rest, err := readUvarintsRest(body, 2)
	if err != nil {
		return in, err
	}
	in.Seq = uint32(vals[0])
	if int(vals[1]) != len(rest) {
		return in, fmt.Errorf("%w: input payload length mismatch", ErrProtocol)
	}
	in.Payload = rest
	return in, nil
}

// WriteBye sends a Bye message.
func WriteBye(w io.Writer) error { return writeMsg(w, MsgBye, nil) }

// WriteStats sends a StatsPacket (the client → server backchannel).
func WriteStats(w io.Writer, st StatsPacket) error {
	body := binary.AppendUvarint(nil, uint64(st.Seq))
	body = binary.AppendUvarint(body, uint64(st.WindowFrames))
	body = binary.AppendUvarint(body, uint64(st.Dropped))
	body = binary.AppendUvarint(body, uint64(st.Misses))
	for _, d := range []time.Duration{st.DecodeP50, st.DecodeP99, st.SRP50, st.SRP99, st.AgeP50, st.AgeP99} {
		body = binary.AppendUvarint(body, clampMicro(int64(d/time.Microsecond)))
	}
	return writeMsg(w, MsgStats, body)
}

func parseStats(body []byte) (StatsPacket, error) {
	vals, err := readUvarints(body, 10)
	if err != nil {
		return StatsPacket{}, err
	}
	us := func(v uint64) time.Duration { return time.Duration(v) * time.Microsecond }
	return StatsPacket{
		Seq:          uint32(vals[0]),
		WindowFrames: uint32(vals[1]),
		Dropped:      uint32(vals[2]),
		Misses:       uint32(vals[3]),
		DecodeP50:    us(vals[4]), DecodeP99: us(vals[5]),
		SRP50: us(vals[6]), SRP99: us(vals[7]),
		AgeP50: us(vals[8]), AgeP99: us(vals[9]),
	}, nil
}

func readUvarints(body []byte, n int) ([]uint64, error) {
	vals, rest, err := readUvarintsRest(body, n)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrProtocol, len(rest))
	}
	return vals, nil
}

// readUvarintsRest reads n uvarints and returns them with the unread
// remainder of body.
func readUvarintsRest(body []byte, n int) ([]uint64, []byte, error) {
	vals := make([]uint64, n)
	for i := 0; i < n; i++ {
		v, m := binary.Uvarint(body)
		if m <= 0 {
			return nil, nil, fmt.Errorf("%w: truncated varint field %d", ErrProtocol, i)
		}
		vals[i] = v
		body = body[m:]
	}
	return vals, body, nil
}

// Msg is a decoded protocol message; exactly one field is set.
type Msg struct {
	Type      MsgType
	Hello     *Hello
	Accept    *Accept
	Frame     *FramePacket
	Input     *InputPacket
	Reject    *Reject
	Stats     *StatsPacket
	Subscribe *Subscribe
	Ping      *PingPacket
	Pong      *PongPacket
}

// ReadMsg reads and decodes the next message from r.
func ReadMsg(r io.Reader) (Msg, error) { return readMsgMax(r, MaxBody) }

// readMsgMax is ReadMsg with the body bounded by limit instead of MaxBody.
func readMsgMax(r io.Reader, limit int) (Msg, error) {
	t, body, err := readMsg(r, limit)
	if err != nil {
		return Msg{}, err
	}
	out := Msg{Type: t}
	switch t {
	case MsgHello:
		out.Hello, err = parsed(parseHello(body))
	case MsgAccept:
		out.Accept, err = parsed(parseAccept(body))
	case MsgFrame:
		out.Frame, err = parsed(parseFrame(body))
	case MsgInput:
		out.Input, err = parsed(parseInput(body))
	case MsgBye:
	case MsgReject:
		out.Reject, err = parsed(parseReject(body))
	case MsgStats:
		out.Stats, err = parsed(parseStats(body))
	case MsgSubscribe:
		out.Subscribe, err = parsed(parseSubscribe(body))
	case MsgPing:
		out.Ping, err = parsed(parsePing(body))
	case MsgPong:
		out.Pong, err = parsed(parsePong(body))
	default:
		err = fmt.Errorf("%w: unknown message type %d", ErrProtocol, t)
	}
	if err != nil {
		return Msg{}, err
	}
	return out, nil
}

// parsed adapts a parser's (value, error) to the pointer a Msg field holds.
func parsed[T any](v T, err error) (*T, error) { return &v, err }
