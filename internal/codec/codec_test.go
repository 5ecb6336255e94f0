package codec

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/render"
)

// luma returns im's Rec.601 luma plane.
func luma(im *frame.Image) []float64 {
	out := make([]float64, im.W*im.H)
	im.LumaRowsInto(out, 0, im.H)
	return out
}

// mustSub is SubImage for a rectangle inside im.
func mustSub(im *frame.Image, x, y, w, h int) *frame.Image {
	s, err := im.SubImage(x, y, w, h)
	if err != nil {
		panic(err)
	}
	return s
}

func gameFrames(t testing.TB, id string, start, count, w, h int) []*frame.Image {
	t.Helper()
	wl, err := games.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	rd := &render.Renderer{}
	out := make([]*frame.Image, count)
	for i := 0; i < count; i++ {
		out[i] = wl.Render(rd, start+i, w, h).Color
	}
	return out
}

func psnrOf(t testing.TB, a, b *frame.Image) float64 {
	t.Helper()
	if a.W != b.W || a.H != b.H {
		t.Fatal("size mismatch")
	}
	la, lb := luma(a), luma(b)
	var sum float64
	for i := range la {
		d := la[i] - lb[i]
		sum += d * d
	}
	mse := sum / float64(len(la))
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

func TestIntraRoundTripQuality(t *testing.T) {
	frames := gameFrames(t, "G3", 0, 1, 160, 90)
	enc, err := NewEncoder(Config{Width: 160, Height: 90, QStep: 4})
	if err != nil {
		t.Fatal(err)
	}
	data, ft, err := enc.Encode(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	if ft != Intra {
		t.Fatalf("first frame type = %v, want intra", ft)
	}
	dec := NewDecoder()
	df, err := dec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if df.Type != Intra || df.Side != nil {
		t.Fatal("intra decode metadata wrong")
	}
	if p := psnrOf(t, frames[0], df.Image); p < 35 {
		t.Errorf("intra PSNR = %.1f dB, want ≥ 35", p)
	}
}

func TestIntraQuantizationBound(t *testing.T) {
	// Property: every reconstructed pixel is within QStep/2 (+rounding) of
	// the source.
	im := frame.NewImage(32, 32)
	rng := rand.New(rand.NewSource(5))
	for i := range im.R {
		im.R[i] = uint8(rng.Intn(256))
		im.G[i] = uint8(rng.Intn(256))
		im.B[i] = uint8(rng.Intn(256))
	}
	for _, q := range []int{1, 2, 5, 8, 16} {
		enc, _ := NewEncoder(Config{Width: 32, Height: 32, QStep: q})
		data, _, err := enc.Encode(im)
		if err != nil {
			t.Fatal(err)
		}
		df, err := NewDecoder().Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		bound := q/2 + 1
		for i := range im.R {
			if absInt(int(im.R[i])-int(df.Image.R[i])) > bound && int(im.R[i]) < 250 {
				t.Fatalf("q=%d: pixel %d error %d > %d", q, i, absInt(int(im.R[i])-int(df.Image.R[i])), bound)
			}
		}
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestGOPStructure(t *testing.T) {
	frames := gameFrames(t, "G1", 0, 7, 96, 54)
	enc, _ := NewEncoder(Config{Width: 96, Height: 54, GOPSize: 3})
	var types []FrameType
	for _, f := range frames {
		_, ft, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, ft)
	}
	want := []FrameType{Intra, Inter, Inter, Intra, Inter, Inter, Intra}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("frame %d type = %v, want %v", i, types[i], want[i])
		}
	}
}

func TestInterRoundTripQualityAndSide(t *testing.T) {
	frames := gameFrames(t, "G3", 10, 4, 160, 90)
	enc, _ := NewEncoder(Config{Width: 160, Height: 90, QStep: 4, GOPSize: 60})
	dec := NewDecoder()
	for i, f := range frames {
		data, ft, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		df, err := dec.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if p := psnrOf(t, f, df.Image); p < 34 {
			t.Errorf("frame %d PSNR = %.1f dB, want ≥ 34", i, p)
		}
		if i == 0 {
			continue
		}
		if ft != Inter || df.Side == nil {
			t.Fatalf("frame %d should be inter with side info", i)
		}
		s := df.Side
		if s.BlocksX != (160+s.BlockSize-1)/s.BlockSize || len(s.MVs) != s.BlocksX*s.BlocksY {
			t.Fatal("MV grid geometry wrong")
		}
		if s.W != 160 || s.H != 90 {
			t.Fatalf("side info is for a %dx%d frame, want 160x90", s.W, s.H)
		}
		res, nz := make([]float64, 160*90), 0
		for p := 0; p < 3; p++ {
			s.ResidualInto(p, res)
			for _, v := range res {
				if v != 0 {
					nz++
				}
			}
		}
		if nz == 0 {
			t.Fatalf("frame %d: every residual plane reads as zero", i)
		}
	}
}

func TestMotionSearchTracksTranslation(t *testing.T) {
	// A pure translation between frames should produce dominant MVs near
	// the true shift and near-zero residual energy.
	w, h := 96, 64
	base := frame.NewImage(w+8, h+8)
	rng := rand.New(rand.NewSource(9))
	for i := range base.R {
		v := uint8(rng.Intn(256))
		base.R[i], base.G[i], base.B[i] = v, v, v
	}
	crop := func(dx, dy int) *frame.Image {
		return mustSub(base, dx, dy, w, h).Clone()
	}
	enc, _ := NewEncoder(Config{Width: w, Height: h, QStep: 4, SearchRange: 8})
	if _, _, err := enc.Encode(crop(4, 4)); err != nil {
		t.Fatal(err)
	}
	data, ft, err := enc.Encode(crop(6, 3)) // scene moved right 2, up 1
	if err != nil {
		t.Fatal(err)
	}
	if ft != Inter {
		t.Fatal("want inter")
	}
	dec := NewDecoder()
	if _, err := dec.Decode(mustEncodeFirst(t, w, h, crop(4, 4))); err != nil {
		t.Fatal(err)
	}
	df, err := dec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	votes := map[MV]int{}
	for _, mv := range df.Side.MVs {
		votes[mv]++
	}
	bestMV, bestN := MV{}, -1
	for mv, n := range votes {
		if n > bestN {
			bestMV, bestN = mv, n
		}
	}
	if bestMV != (MV{DX: 2, DY: -1}) {
		t.Errorf("dominant MV = %+v, want {2 -1} (votes %v)", bestMV, votes)
	}
}

// mustEncodeFirst encodes im as the intra frame of a fresh stream so a
// decoder can be seeded with the same reference as the main encoder.
func mustEncodeFirst(t *testing.T, w, h int, im *frame.Image) []byte {
	t.Helper()
	enc, _ := NewEncoder(Config{Width: w, Height: h, QStep: 4, SearchRange: 8})
	data, _, err := enc.Encode(im)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestInterSmallerThanIntra(t *testing.T) {
	frames := gameFrames(t, "G9", 0, 2, 160, 90)
	enc, _ := NewEncoder(Config{Width: 160, Height: 90})
	intra, _, err := enc.Encode(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	inter, _, err := enc.Encode(frames[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(inter) >= len(intra) {
		t.Errorf("inter frame (%d B) should be smaller than intra (%d B)", len(inter), len(intra))
	}
}

func TestQStepBitrateTradeoff(t *testing.T) {
	f := gameFrames(t, "G5", 0, 1, 160, 90)[0]
	var sizes []int
	for _, q := range []int{2, 6, 16} {
		enc, _ := NewEncoder(Config{Width: 160, Height: 90, QStep: q})
		data, _, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(data))
	}
	if !(sizes[0] > sizes[1] && sizes[1] > sizes[2]) {
		t.Errorf("bitstream sizes not monotone in QStep: %v", sizes)
	}
}

func TestEncoderValidation(t *testing.T) {
	if _, err := NewEncoder(Config{Width: 0, Height: 10}); err == nil {
		t.Error("zero width should fail")
	}
	enc, _ := NewEncoder(Config{Width: 16, Height: 16})
	if _, _, err := enc.Encode(frame.NewImage(8, 8)); err == nil {
		t.Error("size mismatch should fail")
	}
}

func TestEncoderReset(t *testing.T) {
	f := gameFrames(t, "G2", 0, 1, 96, 54)[0]
	enc, _ := NewEncoder(Config{Width: 96, Height: 54, GOPSize: 60})
	if _, ft, _ := enc.Encode(f); ft != Intra {
		t.Fatal("want intra")
	}
	if _, ft, _ := enc.Encode(f); ft != Inter {
		t.Fatal("want inter")
	}
	enc.Reset()
	if _, ft, _ := enc.Encode(f); ft != Intra {
		t.Fatal("reset should force intra")
	}
}

// TestDecoderReuseAcrossStreams: gssr-client keeps one pooled decoder across
// reconnects and never resets it. A decoder that has decoded stream A — to
// an inter frame, so it holds a reference — then decodes stream B, keyframe
// first, byte-identical to a fresh decoder: frame types, images and motion
// vectors, for a B of A's geometry and for one of another.
func TestDecoderReuseAcrossStreams(t *testing.T) {
	encode := func(game string, w, h int) [][]byte {
		t.Helper()
		enc, err := NewEncoder(Config{Width: w, Height: h, GOPSize: 4, QStep: 6})
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, f := range gameFrames(t, game, 0, 6, w, h) {
			data, _, err := enc.Encode(f)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, data)
		}
		return out
	}
	reused := NewDecoder()
	reused.SetPool(bufpool.New())
	for _, data := range encode("G3", 96, 54) {
		df, err := reused.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		reused.Recycle(df)
	}
	for _, b := range []struct {
		game string
		w, h int
	}{{"G1", 96, 54}, {"G3", 64, 36}} {
		fresh := NewDecoder()
		for i, data := range encode(b.game, b.w, b.h) {
			got, err := reused.Decode(data)
			if err != nil {
				t.Fatalf("%s %dx%d frame %d: reused decoder: %v", b.game, b.w, b.h, i, err)
			}
			want, err := fresh.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if got.Type != want.Type || !got.Image.Equal(want.Image) ||
				(got.Side == nil) != (want.Side == nil) || got.Side != nil && !slices.Equal(got.Side.MVs, want.Side.MVs) {
				t.Fatalf("%s %dx%d frame %d: the reused decoder's %v frame differs from a fresh decoder's", b.game, b.w, b.h, i, got.Type)
			}
			reused.Recycle(got)
		}
	}
}

func TestDecoderErrors(t *testing.T) {
	dec := NewDecoder()
	cases := [][]byte{
		nil,
		{0x12, 0x01, 0x01},                  // bad magic
		{magic, 0x09, 0x01},                 // bad version
		{magic, version, 0x07, 4, 4, 16, 6}, // unknown type
		{magic, version, byte(Intra)},       // truncated header
		{magic, version, byte(Intra), 4, 4}, // missing fields
		{magic, version, byte(Inter), 4, 4, 16, 6, 0x01}, // inter w/o ref
	}
	for i, c := range cases {
		if _, err := dec.Decode(c); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestDecoderTruncatedPayload(t *testing.T) {
	f := gameFrames(t, "G4", 0, 2, 96, 54)
	enc, _ := NewEncoder(Config{Width: 96, Height: 54})
	intra, _, _ := enc.Encode(f[0])
	inter, _, _ := enc.Encode(f[1])
	for _, data := range [][]byte{intra, inter} {
		dec := NewDecoder()
		if data[2] == byte(Inter) {
			if _, err := dec.Decode(intra); err != nil {
				t.Fatal(err)
			}
		}
		for _, cut := range []int{len(data) / 4, len(data) / 2, len(data) - 1} {
			if _, err := dec.Decode(data[:cut]); err == nil {
				t.Errorf("truncation at %d/%d should fail", cut, len(data))
			}
		}
	}
}

func TestDecoderDimensionSwitchRejected(t *testing.T) {
	fA := gameFrames(t, "G1", 0, 1, 96, 54)[0]
	fB := gameFrames(t, "G1", 1, 1, 80, 45)[0]
	encA, _ := NewEncoder(Config{Width: 96, Height: 54})
	intra, _, _ := encA.Encode(fA)
	encB, _ := NewEncoder(Config{Width: 80, Height: 45, GOPSize: 60})
	encB.Encode(fB) // consume intra slot
	interSmall, _, err := encB.Encode(fB)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	if _, err := dec.Decode(intra); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(interSmall); err == nil {
		t.Error("inter frame with mismatched reference dims should fail")
	}
}

func TestFrameTypeString(t *testing.T) {
	if Intra.String() != "intra" || Inter.String() != "inter" {
		t.Error("frame type names")
	}
	if FrameType(9).String() == "" {
		t.Error("unknown type should still stringify")
	}
}

func TestDefaultsApplied(t *testing.T) {
	enc, err := NewEncoder(Config{Width: 64, Height: 64, SearchRange: 1000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := enc.cfg
	if cfg.GOPSize != 60 || cfg.BlockSize != 16 || cfg.QStep != 6 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.SearchRange != 127 {
		t.Errorf("search range should clamp to 127, got %d", cfg.SearchRange)
	}
}

func TestLongGOPDriftBounded(t *testing.T) {
	// Closed-loop prediction must not drift: PSNR at the end of a 12-frame
	// GOP stays close to the start.
	frames := gameFrames(t, "G10", 0, 12, 160, 90)
	enc, _ := NewEncoder(Config{Width: 160, Height: 90, QStep: 4, GOPSize: 60})
	dec := NewDecoder()
	var first, last float64
	for i, f := range frames {
		data, _, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		df, err := dec.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		p := psnrOf(t, f, df.Image)
		if i == 0 {
			first = p
		}
		last = p
	}
	if last < first-3 {
		t.Errorf("codec drift: first %.1f dB, last %.1f dB", first, last)
	}
}

func BenchmarkDecodeIntra720p(b *testing.B) {
	f := gameFrames(b, "G3", 0, 1, 1280, 720)[0]
	enc, _ := NewEncoder(Config{Width: 1280, Height: 720})
	data, _, err := enc.Encode(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDecoder().Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
