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
	"gamestreamsr/internal/telemetry"
)

// counterOf returns the named counter's value in s (0 when absent).
func counterOf(s telemetry.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// gaugeOf returns the named gauge's value in s (0 when absent).
func gaugeOf(s telemetry.Snapshot, name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// referenceDecoder returns a decoder pinned to the clamped per-pixel loops.
func referenceDecoder() *Decoder {
	d := NewDecoder()
	d.reference = true
	return d
}

// sameDecode feeds data to the fast and the reference decoder and requires
// the same outcome: the same error, or the same image and MV grid, byte for
// byte, and residual planes read through the fast decoder's side info equal
// to data's residual read one value at a time (referenceResidual). It
// returns the decode error, if any.
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
		if gs.BlocksX != ws.BlocksX || gs.BlocksY != ws.BlocksY || gs.BlockSize != ws.BlockSize ||
			gs.W != ws.W || gs.H != ws.H || gs.W != want.Image.W || gs.H != want.Image.H {
			t.Fatalf("side header %+v, reference %+v", *gs, *ws)
		}
		if !slices.Equal(gs.MVs, ws.MVs) {
			t.Fatal("MV grid differs from the reference loop")
		}
		// The destination starts as NaN, so a sample the reader leaves alone
		// compares unequal.
		res := make([]float64, gs.W*gs.H)
		for p := 0; p < 3; p++ {
			for i := range res {
				res[i] = math.NaN()
			}
			gs.ResidualInto(p, res)
			if !slices.Equal(res, referenceResidual(t, data, p)) {
				t.Fatalf("residual plane %d differs from the one-value-at-a-time reading", p)
			}
		}
	}
	// Recycling exercises the dirty-pooled-buffer side of the contract: the
	// next frame's planes arrive poisoned under -race.
	fast.Recycle(got)
	return nil
}

// referenceResidual reads residual plane p of the inter frame data straight
// from its bytes, independently of either decoder: every band's sequence one
// value at a time (sigSeq.values), times the quantizer, through clampRes.
func referenceResidual(t testing.TB, data []byte, p int) []float64 {
	t.Helper()
	hdr, rest, err := parseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	var j frameJob
	bw, bh := (hdr.w+hdr.bs-1)/hdr.bs, (hdr.h+hdr.bs-1)/hdr.bs
	body, err := j.parseTable(bh, rest)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, hdr.w*hdr.h)
	start := 0
	for by := 0; by < bh; by++ {
		slice := body[start:j.ends[by]]
		start = j.ends[by]
		y := by * hdr.bs
		n := min(hdr.bs, hdr.h-y) * hdr.w
		var s sigSeq
		if _, slice, err = parseSig(slice, 2*bw); err != nil { // the vectors
			t.Fatal(err)
		}
		for q := 0; q <= p; q++ {
			if s, slice, err = parseSig(slice, n); err != nil {
				t.Fatal(err)
			}
		}
		vals := make([]int32, n)
		s.values(vals)
		for i, v := range vals {
			out[y*hdr.w+i] = float64(int16(clampRes(v * int32(hdr.q))))
		}
	}
	return out
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
// scratch, the band table, the slice loop and the error slot are the
// decoder's, so nothing is made per frame or per slice (5 allocations a frame
// before the slices, 1 now; the gate leaves one spare). The pool's counters
// then show what a frame checks out: its image, and no other buffer — the
// side info's residual stays in the payload.
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
	reg := telemetry.NewRegistry()
	dec := NewDecoder()
	dec.SetPool(bufpool.New().Instrument(reg, "t"))
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
	// The frame's image is checked out and the outgoing reference, released
	// by the previous Recycle, goes back: one buffer each way, the same bytes.
	counts := func() (drawn, returned, inFlight int64) {
		s := reg.Snapshot()
		return counterOf(s, "t_bufpool_hits_total") + counterOf(s, "t_bufpool_misses_total"),
			counterOf(s, "t_bufpool_returns_total") + counterOf(s, "t_bufpool_discards_total"),
			gaugeOf(s, "t_bufpool_bytes_in_flight")
	}
	d0, r0, b0 := counts()
	df, err := dec.Decode(inter)
	if err != nil {
		t.Fatal(err)
	}
	d1, r1, b1 := counts()
	dec.Recycle(df)
	if d1-d0 != 1 || r1-r0 != 1 || b1 != b0 {
		t.Errorf("an inter decode checks out %d buffers and returns %d, in-flight bytes %+d; want one image for the retired reference",
			d1-d0, r1-r0, b1-b0)
	}
}

// appendMVRow codes one block row's vectors: DX then DY per block.
func appendMVRow(buf []byte, mvs []MV) []byte {
	vals := make([]int32, 2*len(mvs))
	for i, mv := range mvs {
		vals[2*i], vals[2*i+1] = int32(mv.DX), int32(mv.DY)
	}
	return appendSig(buf, vals)
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
			buf = appendSig(buf, vals)
		}
		slices[by] = buf
	}
	return slices
}

// craftInter is craftInterSlices framed as a whole frame.
func craftInter(cfg Config, mvs []MV, rng *rand.Rand) []byte {
	return appendSlices(appendHeader(nil, Inter, cfg.withDefaults()), craftInterSlices(cfg, mvs, rng))
}

// v3FlagHeader is a frame header followed by what version 3 wrote after
// the quantizer: its RoI flag set to roi, then the uvarints roiFields (the
// rectangle and quantizer a flag of 1 once announced), then its half-pel
// flag set to hp. Version 4 has no flags, so a decoder reads these bytes as
// the slice table.
func v3FlagHeader(t FrameType, cfg Config, roi uint64, roiFields []uint64, hp uint64) []byte {
	buf := binary.AppendUvarint(appendHeader(nil, t, cfg.withDefaults()), roi)
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
			slices[by] = appendSig(slices[by], band)
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
		out = append(out, appendSlices(v3FlagHeader(Inter, cfg, 1, roi, 0), craftInterSlices(cfg, []MV{{0, 0}, {3, -2}}, rng)))
		// The same header on a flat intra body.
		out = append(out, appendSlices(v3FlagHeader(Intra, cfg, 1, roi, 0), flatIntraSlices(cfg)))
	}
	return out
}

// TestDecodeOverflowingRoIRejected: both decoders refuse such a frame with
// the same error instead of reconstructing from it. Version 4's header ends
// at the quantizer, so the flag and the rectangle are read as slice lengths
// and the frame is refused at its slice table.
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
			err := sameDecode(t, fast, ref, data)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "runs past the frame") && !strings.Contains(err.Error(), "slices cover") {
				t.Fatalf("stream %d: err = %v, want ErrCorrupt at the slice table", i, err)
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

// TestSigWalkMatchesReference pins the decoder's word walks — addResiduals
// on an inter band, residualInto on the side info's, fillIntra on an intra
// band — to the layout read one value at a time and put through the
// reference's expressions, on every level from −300 to 300 after every zero
// run up to 130 and at every position of a word, and on random sequences of
// every density.
func TestSigWalkMatchesReference(t *testing.T) {
	for v := int32(-300); v <= 300; v++ {
		checkWalks(t, []int32{v, 1, 0, -v})
	}
	for run := 0; run <= 130; run++ {
		vals := make([]int32, run+2)
		vals[run], vals[run+1] = -3, 1
		checkWalks(t, vals)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		vals := make([]int32, rng.Intn(700))
		density := rng.Intn(101)
		for i := range vals {
			if rng.Intn(100) < density {
				vals[i] = int32(rng.Intn(9) - 4)
			}
		}
		checkWalks(t, vals)
	}
}

// checkWalks codes vals, parses them back and requires the three word walks
// to write what the reference reading gives: for addResiduals, onto a
// prediction, clamp8(pred + v·q); for residualInto, into zeros,
// clampRes(v·q); for fillIntra the running sum's clamp8(acc·q), and the level
// error exactly when a sum leaves ±maxLevel.
func checkWalks(t testing.TB, vals []int32) {
	t.Helper()
	s, rest, err := parseSig(appendSig(nil, vals), len(vals))
	if err != nil || len(rest) != 0 {
		t.Fatalf("%v: err %v, %d spare bytes", vals, err, len(rest))
	}
	got := make([]int32, len(vals))
	s.values(got)
	if !slices.Equal(got, vals) {
		t.Fatalf("values read back as %v, want %v", got, vals)
	}
	for _, q := range []int32{1, 6, maxQStep} {
		rp, res := make([]uint8, len(vals)), make([]float64, len(vals))
		wantRP, wantRes := make([]uint8, len(vals)), make([]float64, len(vals))
		for i, v := range vals {
			rp[i] = uint8(37 * i)
			wantRP[i], wantRes[i] = clamp8(int32(rp[i])+v*q), float64(int16(clampRes(v*q)))
		}
		addResiduals(rp, q, &s)
		if !slices.Equal(rp, wantRP) {
			t.Fatalf("q %d: addResiduals on %v differs from the reference", q, vals)
		}
		residualInto(res, q, &s)
		if !slices.Equal(res, wantRes) {
			t.Fatalf("q %d: residualInto on %v differs from the reference", q, vals)
		}
		acc, over := int32(0), false
		for i, v := range vals {
			acc += v
			over = over || acc < -maxLevel || acc > maxLevel
			wantRP[i] = clamp8(acc * q)
		}
		err := fillIntra(rp, q, &s)
		if over != (err != nil) || !slices.Equal(rp, wantRP) {
			t.Fatalf("q %d: fillIntra on %v: err %v, pixels differ from the reference", q, vals, err)
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
