package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/telemetry"
)

// goldenFrame is frame k of the golden stream: flat planes on multiples of
// the quantizers (a static pixel then codes to zero) under a shaded square
// drifting right and down by (3, 2) a frame, so that it crosses block and
// band edges.
func goldenFrame(k int) *frame.Image {
	im := frame.NewImage(50, 35)
	for y := 0; y < 35; y++ {
		for x := 0; x < 50; x++ {
			i := y*50 + x
			im.R[i], im.G[i], im.B[i] = 48, 120, uint8(168+y/12*24)
			if sx, sy := x-8-3*k, y-5-2*k; sx >= 0 && sx < 18 && sy >= 0 && sy < 13 {
				im.R[i], im.G[i] = uint8(96+8*sx), uint8(240-12*sy)
			}
		}
	}
	return im
}

// TestBitstreamGolden holds the format to recorded bytes: an intra and two
// inter frames at a geometry with partial edge blocks (50×35 in 16-pixel
// blocks: three bands, the last of three rows). A change of grammar fails
// here instead of at a peer; a deliberate one bumps `version` and re-records
// (the failure prints the new bytes).
func TestBitstreamGolden(t *testing.T) {
	for _, g := range bitstreamGoldens {
		enc := mustEncoder(t, g.cfg)
		fast, ref := NewDecoder(), referenceDecoder()
		for k, want := range g.hex {
			got, _, err := enc.Encode(goldenFrame(k))
			if err != nil {
				t.Fatal(err)
			}
			if hex.EncodeToString(got) != want {
				t.Errorf("%s frame %d encodes to\n%x, the golden is\n%s", g.name, k, got, want)
			}
			data, err := hex.DecodeString(want)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameDecode(t, fast, ref, data); err != nil {
				t.Fatalf("%s frame %d: the golden does not decode: %v", g.name, k, err)
			}
			if !fast.prev.Equal(enc.prev) {
				t.Errorf("%s frame %d: the golden decodes to something other than the encoder's reconstruction", g.name, k)
			}
			// There is one parser: the same frame labelled as the previous
			// format is refused, not read.
			data[1] = version - 1
			if err := sameDecode(t, fast, ref, data); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported version") {
				t.Errorf("%s frame %d as version %d: err = %v, want unsupported version", g.name, k, version-1, err)
			}
		}
	}
}

// TestHeaderReservedFlagsRejected sets each of the header's reserved flags —
// where an RoI quantizer and half-pel vectors were once switched on — to 1, 2
// and 2⁶³ on an inter and an intra frame: both decoders refuse the frame with
// ErrCorrupt naming the flag, and keep the reference they held, so the next
// frame of the stream still decodes.
func TestHeaderReservedFlagsRejected(t *testing.T) {
	cfg := Config{Width: 50, Height: 35, QStep: 24}
	enc := mustEncoder(t, cfg)
	intra, _, err := enc.Encode(goldenFrame(0))
	if err != nil {
		t.Fatal(err)
	}
	inter, _, err := enc.Encode(goldenFrame(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, v := range []uint64{1, 2, 1 << 63} {
		for _, c := range []struct {
			flag    string
			roi, hp uint64
		}{{"RoI", v, 0}, {"half-pel", 0, v}} {
			for _, data := range [][]byte{
				appendSlices(flaggedHeader(Inter, cfg, c.roi, nil, c.hp), craftInterSlices(cfg, []MV{{0, 0}, {3, -2}}, rng)),
				appendSlices(flaggedHeader(Intra, cfg, c.roi, nil, c.hp), flatIntraSlices(cfg)),
			} {
				fast, ref := NewDecoder(), referenceDecoder()
				if err := sameDecode(t, fast, ref, intra); err != nil {
					t.Fatal(err)
				}
				want := fmt.Sprintf("reserved %s flag %d", c.flag, v)
				if err := sameDecode(t, fast, ref, data); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
					t.Errorf("%s flag %d: err = %v, want ErrCorrupt with %q", c.flag, v, err, want)
				}
				if err := sameDecode(t, fast, ref, inter); err != nil {
					t.Errorf("%s flag %d: the next inter frame does not decode: %v", c.flag, v, err)
				}
			}
		}
	}
}

// framing is a frame taken apart: its header and its slices, to be put back
// together wrongly.
type framing struct {
	header []byte
	slices [][]byte
}

func splitFrame(t testing.TB, data []byte) framing {
	t.Helper()
	h, rest, err := parseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	f := framing{header: data[:len(data)-len(rest)]}
	lens := make([]int, (h.h+h.bs-1)/h.bs)
	for i := range lens {
		v, m := binary.Uvarint(rest)
		lens[i], rest = int(v), rest[m:]
	}
	for _, n := range lens {
		f.slices = append(f.slices, rest[:n:n])
		rest = rest[n:]
	}
	return f
}

// frameWith assembles header · table · body with the table given as is.
func (f framing) frameWith(lens []int, body []byte) []byte {
	out := bytes.Clone(f.header)
	for _, n := range lens {
		out = binary.AppendUvarint(out, uint64(n))
	}
	return append(out, body...)
}

// withSlice is the frame, correctly framed, with slice s replaced.
func (f framing) withSlice(s int, data []byte) []byte {
	slices := append([][]byte(nil), f.slices...)
	slices[s] = data
	return appendSlices(bytes.Clone(f.header), slices)
}

// hostileFraming is one malformed frame and the text its error must carry.
type hostileFraming struct {
	name, want string
	data       []byte
}

// wrapEntry is the table entry 2⁶⁴−10: ten bytes long, −10 as an int.
var wrapEntry = binary.AppendUvarint(nil, 1<<64-10)

// hostileFramings takes a well-formed frame of at least three slices apart
// and breaks its framing every way the grammar allows.
func hostileFramings(t testing.TB, good []byte) []hostileFraming {
	f := splitFrame(t, good)
	body := bytes.Join(f.slices, nil)
	lens := func(edit func(l []int)) []int {
		l := make([]int, len(f.slices))
		for i, s := range f.slices {
			l[i] = len(s)
		}
		edit(l)
		return l
	}
	last := len(f.slices) - 1
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	out := []hostileFraming{
		{"no table", "truncated slice table", f.header},
		{"table shorter than the slice count", "truncated slice table", join(f.header, []byte{0x01})},
		{"table entry cut mid-varint", "truncated slice table", join(f.header, []byte{0x00, 0x00, 0x80})},
		{"length past the end", "runs past the frame", f.frameWith(lens(func(l []int) { l[0] = len(body) + 1 }), body)},
		{"huge length", "slice 1 of", f.frameWith(lens(func(l []int) { l[1] = 1 << 62 }), body)},
		// The first entry claims the body and the table entries after it; each of
		// those is 10 bytes long and reads as −10 once narrowed, so the running
		// end walks back to the body's length and the sum looks exact.
		{"lengths wrapping back onto the body", "slice 1 of", join(f.header, binary.AppendUvarint(nil, uint64(len(body)+10*last)), bytes.Repeat(wrapEntry, last), body)},
		{"sum short by one", "slices cover", f.frameWith(lens(func(l []int) { l[last]-- }), body)},
		{"sum long by one", "runs past the frame", f.frameWith(lens(func(l []int) { l[last]++ }), body)},
		{"body one byte long", "slices cover", f.frameWith(lens(func([]int) {}), join(body, []byte{0x02}))},
		{"spare byte in a slice", "slice 1: codec: corrupt bitstream: 1 spare bytes", f.withSlice(1, join(f.slices[1], []byte{0x02}))},
		{"slice one byte short", "slice 1: ", f.withSlice(1, f.slices[1][:len(f.slices[1])-1])},
		{"zero-length slice", "slice 0: codec: corrupt bitstream: truncated slice", f.frameWith(lens(func(l []int) { l[1] += l[0]; l[0] = 0 }), body)},
		// Two bad slices: whichever a worker reaches first, the lower one is
		// reported.
		{"two bad slices", "slice 1: ", appendSlices(join(f.header), [][]byte{f.slices[0], f.slices[1][:1], join(f.slices[2], []byte{0x02})})},
	}
	if FrameType(good[2]) == Inter {
		// A zero run one longer than the row's 2·bw vector components, in
		// front of an otherwise intact slice.
		h, _, _ := parseHeader(good)
		run := uint64(2*((h.w+h.bs-1)/h.bs) + 1)
		out = append(out, hostileFraming{"MV run overflowing the row", "slice 2: codec: corrupt bitstream: zero run",
			f.withSlice(2, join(binary.AppendUvarint([]byte{0x00}, run), f.slices[2]))})
	}
	return out
}

// hostileStream is a short stream at a geometry of three bands, as encoded
// bytes: an intra frame, then two inter frames.
func hostileStream(t testing.TB) (frames [][]byte) {
	enc := mustEncoder(t, Config{Width: 40, Height: 36, GOPSize: 60})
	for k := 0; k < 3; k++ {
		im := newTestImage(40, 36, []byte{3, 250, 17, 99, 180, 42, 7, byte(31 * k)})
		data, _, err := enc.Encode(im)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, data)
	}
	return frames
}

// TestDecodeHostileFraming: every malformed table or slice is refused with
// ErrCorrupt and the same message by both decoders, at any GOMAXPROCS; the
// refusal costs nothing — the output image and the residual planes are back
// in the pool, the inter reference is the one before — and the frame that was
// mangled then decodes as if nothing had happened.
func TestDecodeHostileFraming(t *testing.T) {
	stream := hostileStream(t)
	atProcs(t, func(t *testing.T) {
		for _, target := range []int{0, 1} { // an intra frame, an inter frame
			for _, bad := range hostileFramings(t, stream[target]) {
				reg := telemetry.NewRegistry()
				fast, ref := NewDecoder(), referenceDecoder()
				fast.SetPool(bufpool.New().Instrument(reg, "t"))
				for _, data := range stream[:target] {
					if err := sameDecode(t, fast, ref, data); err != nil {
						t.Fatal(err)
					}
				}
				held, prev := reg.Snapshot().Gauge("t_bufpool_bytes_in_flight"), fast.prev
				err := sameDecode(t, fast, ref, bad.data)
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), bad.want) {
					t.Errorf("%v frame, %s: err = %v, want ErrCorrupt with %q", FrameType(stream[target][2]), bad.name, err, bad.want)
					continue
				}
				if now := reg.Snapshot().Gauge("t_bufpool_bytes_in_flight"); now != held || fast.prev != prev {
					t.Errorf("%s: %d pool bytes in flight after the refusal, %d before; reference kept: %v", bad.name, now, held, fast.prev == prev)
				}
				for _, data := range stream[target:] {
					if err := sameDecode(t, fast, ref, data); err != nil {
						t.Fatalf("%s: the stream does not resume: %v", bad.name, err)
					}
				}
			}
		}
	})
}

// TestDecodeLevelBound: a level of ±maxLevel — whose product with the largest
// quantizer still fits an int32 — decodes, one past it is refused, by both
// decoders alike; an intra level is the running sum of its deltas and is held
// to the same bound.
func TestDecodeLevelBound(t *testing.T) {
	cfg := Config{Width: 16, Height: 16, QStep: maxQStep}.withDefaults()
	intra, _, err := mustEncoder(t, cfg).Encode(newTestImage(16, 16, []byte{200}))
	if err != nil {
		t.Fatal(err)
	}
	plane := func(vals ...int32) []byte {
		return appendSignedRLE(nil, append(vals, make([]int32, 256-len(vals))...))
	}
	flat := plane()
	inter := func(p []byte) []byte {
		slice := appendMVRow(nil, []MV{{}})
		return appendSlices(appendHeader(nil, Inter, cfg), [][]byte{append(append(append(slice, flat...), p...), flat...)})
	}
	intraOf := func(p []byte) []byte {
		return appendSlices(appendHeader(nil, Intra, cfg), [][]byte{append(append(append([]byte(nil), flat...), flat...), p...)})
	}
	for _, c := range []struct {
		name string
		data []byte
		want string // "" for a frame that decodes
	}{
		{"inter +max", inter(plane(maxLevel)), ""},
		{"inter -max", inter(plane(0, -maxLevel)), ""},
		{"inter +max+1", inter(plane(maxLevel + 1)), "level out of range"},
		{"inter -max-1", inter(plane(3, -maxLevel-1)), "level out of range"},
		{"intra sum at max", intraOf(plane(maxLevel-5, 0, 5, -maxLevel, -maxLevel)), ""},
		{"intra sum past max", intraOf(plane(maxLevel-5, 0, 5, 1)), "level out of range"},
		{"intra sum past -max", intraOf(plane(-maxLevel, 0, 0, -1, 1)), "level out of range"},
		// Out of range and then cut short: the band's stream is parsed to
		// its end before its levels are judged, on both decoders.
		{"intra past max, then cut", intraOf(plane(maxLevel, 1)[:6]), "truncated zero run"},
	} {
		fast, ref := NewDecoder(), referenceDecoder()
		if err := sameDecode(t, fast, ref, intra); err != nil {
			t.Fatal(err)
		}
		err := sameDecode(t, fast, ref, c.data)
		if c.want == "" && err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if c.want != "" && (!errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: err = %v, want ErrCorrupt with %q", c.name, err, c.want)
		}
	}
	// The bound is what makes the product safe.
	if p := int64(maxLevel)*maxQStep + 255; p != int64(int32(p)) {
		t.Errorf("maxLevel × maxQStep + 255 = %d does not fit an int32", p)
	}
}

var bitstreamGoldens = []struct {
	name string
	cfg  Config
	hex  [3]string
}{
	{name: "plain", cfg: Config{Width: 50, Height: 35, QStep: 24}, hex: [3]string{
		"470301322310180000be02420c04008102040001020002020002020002020002020002020f001f040001020002020002020002020002020002020f001f040001020002020002020002020002020002020f001f040001020002020002020002020002020002020f001f040001020002020002020002020002020002020f001f040001020002020002020002020002020002020f001f040001020002020002020002020002020002020f001f040001020002020002020002020002020002020f001f040001020002020002020002020002020002020f001f040001020002020002020002020002020002020f001f040001020002020002020002020002020002020f00170a0081020a001109001f0a001109001f08001107001f08001107001f06001105001f06001105001f04001103001f04001103001f02001101001f0200110100490e00d7040200c701040007040001020002020002020002020002020002020f001f040001020002020002020002020002020002020f00d3050a00390100110200d30510008f0302008f03040095010a00950112009501",
		"470302322310180000a3017c0b05030503000400a006009b03010101010101010101010101010101010101005201010101010101010101010101010101010100520101010101010101010101010101010101010052010101010101010101010101010101010101004700d804020202020202020202020202020202020202020202020202020202020202020200120202020202020202020202020202020202020202020202020202020202020202007605030503000400a006000b0101010101010101010101010101010101010052010101010101010101010101010101010101009f0500900302020202020202020202020202020202020202020202020202020202020202020012020202020202020202020202020202020202020202020202020202020202020200be020008009601009601009601",
		"4703023223101800008d02fc010b05030703000400d20302000202000202000202000202000202002202000202000202000202000202000202002202000202000202000202000202000202002202000202000202000202000202000202002202000202000202000202000202000202002202000202000202000202000202000202002202000202000202000202000202000202001200820402020202020202020202020202020202020200520202020202020202020202020202020202020052020202020202020202020202020202020202004400d8040202020202020202020202020202020202020202020202020202020202020202001202020202020202020202020202020202020202020202020202020202020202020076050307030004001002000202000202000202000202000202002202000202000202000202000202000202002202000202000202000202000202000202002202000202000202000202000202000202002202000202000202000202000202000202002202000202000202000202000202000202008604000e0202020202020202020202020202020202020052020202020202020202020202020202020202005202020202020202020202020202020202020200b80400900302020202020202020202020202020202020202020202020202020202020202020012020202020202020202020202020202020202020202020202020202020202020200be020008009601009601009601",
	}},
}
