package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/telemetry"
	"gamestreamsr/internal/testkit"
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
// (the failure prints the new bytes). The images are held apart from the
// bytes: their hashes are those of the version-3 goldens' decodes, which a
// change of entropy coding alone must not move.
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
			if got := imageSum(fast.prev); got != g.image[k] {
				t.Errorf("%s frame %d decodes to an image of SHA-256 %s, the version-3 golden's was %s", g.name, k, got, g.image[k])
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

// TestHeaderV3FlagsRefused: a frame whose header still carries version 3's
// two trailing flags — 0, or set to 1, 2 and 2⁶³, where an RoI quantizer and
// half-pel vectors were once switched on — is refused with ErrCorrupt by both
// decoders, inter and intra alike, and they keep the reference they held, so
// the next frame of the stream still decodes. Version 4 reads the flags as
// the first slice lengths.
func TestHeaderV3FlagsRefused(t *testing.T) {
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
	for _, v := range []uint64{0, 1, 2, 1 << 63} {
		for _, c := range []struct {
			flag    string
			roi, hp uint64
		}{{"RoI", v, 0}, {"half-pel", 0, v}} {
			for _, data := range [][]byte{
				appendSlices(v3FlagHeader(Inter, cfg, c.roi, nil, c.hp), craftInterSlices(cfg, []MV{{0, 0}, {3, -2}}, rng)),
				appendSlices(v3FlagHeader(Intra, cfg, c.roi, nil, c.hp), flatIntraSlices(cfg)),
			} {
				fast, ref := NewDecoder(), referenceDecoder()
				if err := sameDecode(t, fast, ref, intra); err != nil {
					t.Fatal(err)
				}
				if err := sameDecode(t, fast, ref, data); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s flag %d: err = %v, want ErrCorrupt", c.flag, v, err)
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
		{"zero-length slice", "slice 0: codec: corrupt bitstream: truncated occupancy bitmap", f.frameWith(lens(func(l []int) { l[1] += l[0]; l[0] = 0 }), body)},
		// Two bad slices: whichever a worker reaches first, the lower one is
		// reported.
		{"two bad slices", "slice 1: ", appendSlices(join(f.header), [][]byte{f.slices[0], f.slices[1][:1], join(f.slices[2], []byte{0x02})})},
	}
	// Slice 1's first sequence broken every way the layout forbids: the row's
	// 2·bw vector components on an inter frame, the band's first plane on an
	// intra frame (a whole band: the frame has at least three).
	h, _, _ := parseHeader(good)
	n := h.bs * h.w
	if FrameType(good[2]) == Inter {
		n = 2 * ((h.w + h.bs - 1) / h.bs)
	}
	for _, c := range hostileSigs(n) {
		out = append(out, hostileFraming{"layout: " + c.name, "slice 1: codec: corrupt bitstream: " + c.want, f.withSlice(1, c.seq)})
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
	testkit.AtProcs(t, func(t *testing.T) {
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
				held, prev := testkit.GaugeOf(reg.Snapshot(), "t_bufpool_bytes_in_flight"), fast.prev
				err := sameDecode(t, fast, ref, bad.data)
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), bad.want) {
					t.Errorf("%v frame, %s: err = %v, want ErrCorrupt with %q", FrameType(stream[target][2]), bad.name, err, bad.want)
					continue
				}
				if now := testkit.GaugeOf(reg.Snapshot(), "t_bufpool_bytes_in_flight"); now != held || fast.prev != prev {
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
		return appendSig(nil, append(vals, make([]int32, 256-len(vals))...))
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
		// Out of range and then cut short: the band's sequence is parsed to
		// its end before its levels are judged, on both decoders.
		{"intra past max, then cut", intraOf(plane(maxLevel, 1)[:14]), "truncated escape list"},
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

// imageSum is the SHA-256 of an image's R, G and B planes, in hex.
func imageSum(im *frame.Image) string {
	h := sha256.New()
	h.Write(im.R)
	h.Write(im.G)
	h.Write(im.B)
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamSizeG3 counts the bytes a GOP and a half of G3 cost on the wire
// — script frames 24–47 at 320×180, GOP 12, quantizer 6, two intra frames —
// so a change that bloats the stream fails here. Version 3 coded the same
// frames in 1,358,893 bytes; version 4 must stay at most 0.45× of that.
func TestStreamSizeG3(t *testing.T) {
	const v3Total, want = 1358893, 511425
	enc := mustEncoder(t, Config{Width: 320, Height: 180, GOPSize: 12, QStep: 6})
	total := 0
	for _, f := range gameFrames(t, "G3", 24, 24, 320, 180) {
		data, _, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		total += len(data)
	}
	if total != want {
		t.Errorf("G3 frames 24–47 code to %d bytes, want %d", total, want)
	}
	if float64(total) > 0.45*v3Total {
		t.Errorf("G3 frames 24–47 code to %d bytes, %.3f× version 3's %d", total, float64(total)/v3Total, v3Total)
	}
}

var bitstreamGoldens = []struct {
	name  string
	cfg   Config
	hex   [3]string
	image [3]string
}{
	{name: "plain", cfg: Config{Width: 50, Height: 35, QStep: 24}, image: [3]string{
		"95ca658773fb653bc87e1131065c981efa51c43b55cdf1f354c6643b6abdfef4",
		"8de7e10a4d62486bfcdbbbf595990863d382880ef79c264b70f99b4cf2644d1b",
		"81f65cdd340b75021e9c570659636dae955ae5f0181b1d998cd321ea808a2476",
	}, hex: [3]string{
		"4704013223101895024c27f11f0100000000000000942419000000509264000000404992010000002549060000009424190000005092640000004049920100000025490600000094241900000050926400000040499201000000000000000101010101010101010101170100820200120620001206200012062000120620001206200012062000120620001206200012062000120620001206f10f0100000000000000040010000000100040000000400000010000000100040000000400100000001000400000004000000100000001000400000004001000000010004000000000005455151101038202031203200312032002120220021202200112012001120120001200200012000102010000000000000000000001000000000001010503000125490600000094241900000000000000010105010008001206200012060300010000000000000400100000000000000201010341000100000000000000000001000000000000010106010100000000000000000101000101000000000000000001010301010000000000000000010107",
		"47040232231018655108010f000000000000000f040101010001010100000000c00b000000f8ff1f00000000000000000080ffff01000000000000000000f8ff1f0080ffff0100000000ffffffffffffffffff000006000000ffffffff0000fcffffff030000000000000000000000010f000000000000000f040101010001010100000000070000f8ff1f00000000000000000080ffff0100000000000000ffffffff0f00c0000000ffffffff0000fcffffff030000000000000000000000000000000000000000",
		"470402322310188901880108010f000000000000000f040101010001020100801f00002449020000009024090000004092240000000049920000000024490200000090240900000040922400000000000000000000000000000bfcff0f000000000000000000c0ffff0000fcff0f0000000000000000000000000006000000ffffffff0000fcffffff030000000000000000000000010f000000000000000f0401010100010201001f00000049920000000024490200000090240900000040922400000000499200000000244902000000000000000000000f0000c0ffff00000000000000000000fcff0f000000000000000000c0ffff0000000000000000000000c0000000ffffffff0000fcffffff030000000000000000000000000000000000000000",
	}},
}
