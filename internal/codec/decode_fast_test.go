package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/games"
)

// referenceDecoder returns a decoder pinned to the clamped per-pixel loops.
func referenceDecoder() *Decoder {
	d := NewDecoder()
	d.reference = true
	return d
}

// sameDecode feeds data to the fast and the reference decoder and requires
// the same outcome: the same error, or the same image, MV grid and residual
// planes, byte for byte. It returns the decode error, if any.
func sameDecode(t testing.TB, fast, ref *Decoder, data []byte) error {
	t.Helper()
	got, gerr := fast.Decode(data)
	want, werr := ref.Decode(data)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("fast path error %v, reference error %v", gerr, werr)
	}
	if gerr != nil {
		return gerr
	}
	if got.Type != want.Type || !got.Image.Equal(want.Image) {
		t.Fatalf("%v frame: fast-path image differs from the reference loop", want.Type)
	}
	if (got.Side == nil) != (want.Side == nil) {
		t.Fatal("side info present on one path only")
	}
	if got.Side != nil {
		gs, ws := got.Side, want.Side
		if gs.BlocksX != ws.BlocksX || gs.BlocksY != ws.BlocksY || gs.BlockSize != ws.BlockSize {
			t.Fatalf("side header %+v, reference %+v", *gs, *ws)
		}
		if !slices.Equal(gs.MVs, ws.MVs) {
			t.Fatal("MV grid differs from the reference loop")
		}
		for p := range gs.Residual {
			if !slices.Equal(gs.Residual[p], ws.Residual[p]) {
				t.Fatalf("residual plane %d differs from the reference loop", p)
			}
		}
	}
	// Recycling exercises the dirty-pooled-buffer side of the contract: the
	// next frame's planes arrive poisoned under -race.
	fast.Recycle(got)
	return nil
}

// atProcs runs f at GOMAXPROCS 1 and 2, so the block rows are reconstructed
// both inline and with a worker stealing them.
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// TestDecodeFastPathMatchesReference is the decoder differential over real
// content: G3 GOPs at geometries that are and are not multiples of the block
// size — a last band of one pixel row, a frame narrower than a block, a
// frame of a single row.
func TestDecodeFastPathMatchesReference(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for _, g := range [][2]int{{96, 54}, {100, 60}, {64, 48}, {33, 17}, {9, 40}, {40, 1}} {
			enc := mustEncoder(t, Config{Width: g[0], Height: g[1], GOPSize: 6})
			fast, ref := NewDecoder(), referenceDecoder()
			fast.SetPool(bufpool.New())
			for i, f := range gameFrames(t, "G3", 0, 7, g[0], g[1]) {
				data, _, err := enc.Encode(f)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameDecode(t, fast, ref, data); err != nil {
					t.Fatalf("%dx%d frame %d: %v", g[0], g[1], i, err)
				}
			}
		}
	})
}

// TestDecodeLadderMatchesReference runs the decoder differential over what
// the system streams: G1–G10 along a ladder of script frames, each rung an
// intra frame and two inter frames, at the two live geometries in turn. The
// sparse path adds
// residuals onto the prediction it wrote itself, so a pixel the prediction
// pass missed shows as a difference (and, with -tags bufpool_debug, as a sum
// onto poison). Run at -cpu 1,2.
func TestDecodeLadderMatchesReference(t *testing.T) {
	step := 485
	if testing.Short() {
		step = 1455
	}
	sizes := [][2]int{{320, 180}, {640, 360}}
	for _, g := range games.All() {
		fast, ref := NewDecoder(), referenceDecoder()
		fast.SetPool(bufpool.New())
		for rung := 0; rung*step <= 2910; rung++ {
			size := sizes[rung%len(sizes)]
			enc := mustEncoder(t, Config{Width: size[0], Height: size[1], GOPSize: 3})
			for i, f := range gameFrames(t, g.ID, rung*step, 3, size[0], size[1]) {
				data, _, err := enc.Encode(f)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameDecode(t, fast, ref, data); err != nil {
					t.Fatalf("%s frame %d at %dx%d: %v", g.ID, rung*step+i, size[0], size[1], err)
				}
			}
		}
	}
}

// TestDecodeSteadyStateAllocs holds the pooled decode of an inter frame, as
// the client runs it, to the frame it returns: the slice table, the MV
// scratch, the slice loop and the error slot are the decoder's, so nothing is
// made per frame or per slice (5 allocations a frame before the slices, 1
// now; the gate leaves one spare).
func TestDecodeSteadyStateAllocs(t *testing.T) {
	frames := gameFrames(t, "G3", 0, 2, 320, 180)
	enc := mustEncoder(t, Config{Width: 320, Height: 180})
	intra, _, err := enc.Encode(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	inter, _, err := enc.Encode(frames[1])
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	dec.SetPool(bufpool.New())
	decode := func(data []byte) {
		df, err := dec.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		dec.Recycle(df)
	}
	decode(intra)
	if got := testing.AllocsPerRun(20, func() { decode(inter) }); got > 2 {
		t.Errorf("pooled inter decode allocates %.1f times a frame, want <= 2", got)
	}
}

// appendMVRow codes one block row's vectors: DX then DY per block.
func appendMVRow(buf []byte, mvs []MV) []byte {
	vals := make([]int32, 2*len(mvs))
	for i, mv := range mvs {
		vals[2*i], vals[2*i+1] = int32(mv.DX), int32(mv.DY)
	}
	return appendSignedRLE(buf, vals)
}

// craftInterSlices hand-assembles the slices of an inter frame: the given MV
// for every block (cycled), random residuals — streams no encoder would emit,
// which is the point.
func craftInterSlices(cfg Config, mvs []MV, rng *rand.Rand) [][]byte {
	cfg = cfg.withDefaults()
	bs := cfg.BlockSize
	bw := (cfg.Width + bs - 1) / bs
	bh := (cfg.Height + bs - 1) / bs
	slices := make([][]byte, bh)
	for by := range slices {
		row := make([]MV, bw)
		for bx := range row {
			row[bx] = mvs[(by*bw+bx)%len(mvs)]
		}
		buf := appendMVRow(nil, row)
		vals := make([]int32, min(bs, cfg.Height-by*bs)*cfg.Width)
		for p := 0; p < 3; p++ {
			for i := range vals {
				switch rng.Intn(8) {
				case 0:
					vals[i] = int32(rng.Intn(41) - 20)
				case 1:
					vals[i] = int32(rng.Intn(1<<20)) - 1<<19 // residuals past the int16 clamp
				default:
					vals[i] = 0
				}
			}
			buf = appendSignedRLE(buf, vals)
		}
		slices[by] = buf
	}
	return slices
}

// craftInter is craftInterSlices framed as a whole frame.
func craftInter(cfg Config, mvs []MV, rng *rand.Rand) []byte {
	return appendSlices(appendHeader(nil, Inter, cfg.withDefaults()), craftInterSlices(cfg, mvs, rng))
}

// flaggedHeader is a frame header with the reserved flags set: the RoI flag
// to roi, followed by the uvarints roiFields (the rectangle and quantizer a
// flag of 1 once announced), then the half-pel flag to hp.
func flaggedHeader(t FrameType, cfg Config, roi uint64, roiFields []uint64, hp uint64) []byte {
	buf := appendHeader(nil, t, cfg.withDefaults())
	buf = binary.AppendUvarint(buf[:len(buf)-2], roi)
	for _, v := range roiFields {
		buf = binary.AppendUvarint(buf, v)
	}
	return binary.AppendUvarint(buf, hp)
}

// flatIntraSlices is the body of an intra frame of constant level 0.
func flatIntraSlices(cfg Config) [][]byte {
	cfg = cfg.withDefaults()
	slices := make([][]byte, (cfg.Height+cfg.BlockSize-1)/cfg.BlockSize)
	for by := range slices {
		band := make([]int32, min(cfg.BlockSize, cfg.Height-by*cfg.BlockSize)*cfg.Width)
		for p := 0; p < 3; p++ {
			slices[by] = appendSignedRLE(slices[by], band)
		}
	}
	return slices
}

// TestDecodeHostileMotionVectors points vectors off every edge and corner,
// to the int8 extremes, and exactly onto the last in-frame position, on
// geometries with partial edge blocks: the footprint test must route each
// block to the loop that is valid for it, and both decoders must agree.
func TestDecodeHostileMotionVectors(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		for _, g := range [][2]int{{48, 32}, {50, 35}, {20, 70}, {16, 16}, {5, 3}} {
			w, h := g[0], g[1]
			cfg := Config{Width: w, Height: h}
			ref0 := newTestImage(w, h, []byte{3, 250, 17, 99, 180, 42, 7})
			intra, _, err := mustEncoder(t, cfg).Encode(ref0)
			if err != nil {
				t.Fatal(err)
			}
			edge := []MV{
				{0, 0}, {-1, 0}, {1, 0}, {0, -1}, {0, 1}, {-128, -128}, {127, 127}, {-128, 127}, {127, -128},
				{int8(min(w-16, 127)), 0}, {0, int8(min(h-16, 127))}, {int8(max(-w, -128)), int8(max(-h, -128))},
				{16, 16}, {-16, -16}, {3, -5}, {-7, 2},
			}
			random := make([]MV, 64)
			for i := range random {
				random[i] = MV{DX: int8(rng.Intn(256) - 128), DY: int8(rng.Intn(256) - 128)}
			}
			for _, mvs := range [][]MV{edge, random, edge[1:2], edge[2:3], edge[3:4], edge[4:5]} {
				data := craftInter(cfg, mvs, rng)
				fast, ref := NewDecoder(), referenceDecoder()
				fast.SetPool(bufpool.New())
				for _, d := range [][]byte{intra, data, data} { // the second inter predicts from the first
					if err := sameDecode(t, fast, ref, d); err != nil {
						t.Fatalf("%dx%d: crafted stream rejected: %v", w, h, err)
					}
				}
			}
		}
	})
}

// overflowingRoIStreams crafts inter and intra frames with the RoI header the
// format once had — flag 1, then X, Y, W, H and a quantizer — whose far edge
// passes a naive X+W <= w check only because the sum wraps: the RoI-quantized
// loops would have been handed a span that ends before it starts.
func overflowingRoIStreams(rng *rand.Rand) [][]byte {
	cfg := Config{Width: 32, Height: 24}
	var out [][]byte
	for _, r := range [][4]uint64{
		{1 << 62, 0, 1 << 62, 1},
		{0, 1 << 62, 1, 1 << 62},
		{math.MaxInt, 0, 1, 1},
		{1 << 62, 1 << 62, 1 << 62, 1 << 62},
	} {
		roi := append(r[:], 2)
		out = append(out, appendSlices(flaggedHeader(Inter, cfg, 1, roi, 0), craftInterSlices(cfg, []MV{{0, 0}, {3, -2}}, rng)))
		// The same header on a flat intra body.
		out = append(out, appendSlices(flaggedHeader(Intra, cfg, 1, roi, 0), flatIntraSlices(cfg)))
	}
	return out
}

// TestDecodeOverflowingRoIRejected: both decoders refuse such a header, at
// its reserved RoI flag, with the same error instead of reconstructing from
// it.
func TestDecodeOverflowingRoIRejected(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		intra, _, err := mustEncoder(t, Config{Width: 32, Height: 24}).Encode(newTestImage(32, 24, []byte{9, 200, 31}))
		if err != nil {
			t.Fatal(err)
		}
		for i, data := range overflowingRoIStreams(rand.New(rand.NewSource(5))) {
			fast, ref := NewDecoder(), referenceDecoder()
			if err := sameDecode(t, fast, ref, intra); err != nil {
				t.Fatal(err)
			}
			if err := sameDecode(t, fast, ref, data); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "reserved RoI flag 1") {
				t.Fatalf("stream %d: err = %v, want ErrCorrupt at the reserved RoI flag", i, err)
			}
		}
	})
}

func mustEncoder(t testing.TB, cfg Config) *Encoder {
	t.Helper()
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestDecodeRLEShortFormsMatchVarint pins the in-place one-byte value and
// run decoding to the general varint route: every one-byte code, the
// two-byte codes around the boundary, and truncations of each.
func TestDecodeRLEShortFormsMatchVarint(t *testing.T) {
	for v := int32(-200); v <= 200; v++ {
		got, rest, err := decodeSignedRLE(appendSignedRLE(nil, []int32{v, 1}), 2)
		if err != nil || len(rest) != 0 || got[0] != v || got[1] != 1 {
			t.Fatalf("value %d round-tripped to %v (rest %d, err %v)", v, got, len(rest), err)
		}
	}
	for run := 1; run <= 300; run++ {
		vals := make([]int32, run+1)
		vals[run] = -3
		got, rest, err := decodeSignedRLE(appendSignedRLE(nil, vals), run+1)
		if err != nil || len(rest) != 0 || got[run] != -3 {
			t.Fatalf("run %d: err %v rest %d", run, err, len(rest))
		}
		for i := 0; i < run; i++ {
			if got[i] != 0 {
				t.Fatalf("run %d: value %d is %d", run, i, got[i])
			}
		}
	}
	for _, bad := range [][]byte{{0x00}, {0x00, 0x00}, {0x00, 0x80}, {0x00, 0x05}, {0x80}} {
		if _, _, err := decodeSignedRLE(bad, 3); err == nil {
			t.Errorf("stream % x decoded", bad)
		}
	}
}

// BenchmarkDecodeInter720p is the client's per-frame decode in the form the
// client and the engine call it: a pooled decoder whose frames are recycled.
// The reference is re-seeded by the same intra frame outside the timer every
// iteration, so every iteration decodes the same inter frame.
func BenchmarkDecodeInter720p(b *testing.B) {
	frames := gameFrames(b, "G3", 0, 2, 1280, 720)
	enc, _ := NewEncoder(Config{Width: 1280, Height: 720})
	intra, _, err := enc.Encode(frames[0])
	if err != nil {
		b.Fatal(err)
	}
	inter, _, err := enc.Encode(frames[1])
	if err != nil {
		b.Fatal(err)
	}
	dec := NewDecoder()
	dec.SetPool(bufpool.New())
	b.ReportAllocs()
	b.SetBytes(int64(len(inter)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ref, err := dec.Decode(intra)
		if err != nil {
			b.Fatal(err)
		}
		dec.Recycle(ref)
		b.StartTimer()
		df, err := dec.Decode(inter)
		if err != nil {
			b.Fatal(err)
		}
		dec.Recycle(df)
	}
}
