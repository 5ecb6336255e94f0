package codec

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
)

// encoderPair is the shipped encoder (pooled, as the server and the engine
// run it) beside one pinned to the clamped per-pixel loops, plus a decoder
// fed the shipped bitstream.
type encoderPair struct {
	fast, ref *Encoder
	dec       *Decoder
}

func newEncoderPair(t testing.TB, cfg Config) *encoderPair {
	t.Helper()
	p := &encoderPair{fast: mustEncoder(t, cfg), ref: mustEncoder(t, cfg), dec: NewDecoder()}
	p.fast.SetPool(bufpool.New())
	p.ref.reference = true
	return p
}

// encode codes im on both encoders and requires the same bitstream and the
// same reconstruction, byte for byte, and that a decoder reproduces that
// reconstruction from the stream.
func (p *encoderPair) encode(t testing.TB, im *frame.Image) FrameType {
	t.Helper()
	code := func(e *Encoder) ([]byte, FrameType) {
		data, ft, err := e.Encode(im)
		if err != nil {
			t.Fatal(err)
		}
		return data, ft
	}
	got, gt := code(p.fast)
	want, wt := code(p.ref)
	if gt != wt {
		t.Fatalf("fast path coded a %v frame, reference a %v frame", gt, wt)
	}
	if !bytes.Equal(got, want) {
		if gt == Inter && !slices.Equal(p.fast.mvs, p.ref.mvs) {
			t.Fatalf("%v frame: motion vectors differ from the reference search", gt)
		}
		t.Fatalf("%v frame: fast-path bitstream (%d B) differs from the reference loop (%d B)", gt, len(got), len(want))
	}
	if !p.fast.prev.Equal(p.ref.prev) {
		t.Fatalf("%v frame: fast-path reconstruction differs from the reference loop", gt)
	}
	df, err := p.dec.Decode(got)
	if err != nil {
		t.Fatalf("%v frame does not decode: %v", gt, err)
	}
	if !df.Image.Equal(p.fast.prev) {
		t.Fatalf("%v frame: decoder output differs from the encoder's reconstruction", gt)
	}
	return gt
}

// TestEncodeFastPathMatchesReference is the encoder differential over real
// content: G3 GOPs from the bench geometries down to one that is not a
// multiple of the block size, at the smallest, default and largest search
// range (127 makes every block's window leave the frame), inline and with a
// worker stealing block rows.
func TestEncodeFastPathMatchesReference(t *testing.T) {
	for _, g := range []struct {
		w, h     int
		searches []int
	}{
		{100, 60, []int{12, 1, 127}},
		{320, 180, []int{12, 1, 127}},
		{640, 360, []int{12, 1, 127}},
		{1280, 720, []int{12}},
	} {
		frames := gameFrames(t, "G3", 0, 5, g.w, g.h)
		atProcs(t, func(t *testing.T) {
			for _, search := range g.searches {
				p := newEncoderPair(t, Config{Width: g.w, Height: g.h, GOPSize: 3, SearchRange: search})
				for i, f := range frames {
					if ft := p.encode(t, f); (ft == Intra) != (i%3 == 0) {
						t.Fatalf("%dx%d search=%d: frame %d coded as %v", g.w, g.h, search, i, ft)
					}
				}
			}
		})
	}
}

// outwardPair builds a frame a and its successor b in which every quadrant's
// content has moved (3, 2) pixels toward the frame's centre (edge pixels
// replicated), so the best vector of a block points away from the centre —
// off the nearest edge for a border block, off both for a corner block. The
// texture is smooth enough for the diamond descent to follow.
func outwardPair(w, h int) (a, b *frame.Image) {
	a, b = frame.NewImage(w, h), frame.NewImage(w, h)
	tex := func(x, y int) uint8 {
		return uint8(128 + 50*math.Sin(float64(x)/5) + 50*math.Cos(float64(y)/4) + 20*math.Sin(float64(x+y)/3))
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			a.R[i], a.G[i], a.B[i] = tex(x, y), tex(x+40, y), tex(x, y+40)
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dx, dy := -3, -2
			if x >= w/2 {
				dx = 3
			}
			if y >= h/2 {
				dy = 2
			}
			i, j := y*w+x, clampInt(y+dy, 0, h-1)*w+clampInt(x+dx, 0, w-1)
			b.R[i], b.G[i], b.B[i] = a.R[j], a.G[j], a.B[j]
		}
	}
	return a, b
}

// TestEncodeVectorsOffEveryEdge codes a hand-built pair whose best vectors
// point off every edge and corner, on geometries with and without partial
// edge blocks: the footprint test must send each candidate and each block to
// the loop that is valid for it. The test first checks its own premise — the
// search did find a vector leaving the frame in each of the eight
// directions.
func TestEncodeVectorsOffEveryEdge(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for _, g := range [][2]int{{96, 64}, {100, 70}} {
			w, h := g[0], g[1]
			a, b := outwardPair(w, h)
			p := newEncoderPair(t, Config{Width: w, Height: h})
			p.encode(t, a)
			p.encode(t, b)
			bs := p.fast.cfg.BlockSize
			bw := (w + bs - 1) / bs
			seen := map[[2]int]bool{}
			for i, mv := range p.fast.mvs {
				x, y := i%bw*bs, i/bw*bs
				bwid, bhgt := min(bs, w-x), min(bs, h-y)
				var dir [2]int
				if x+int(mv.DX) < 0 {
					dir[0] = -1
				} else if x+bwid+int(mv.DX) > w {
					dir[0] = 1
				}
				if y+int(mv.DY) < 0 {
					dir[1] = -1
				} else if y+bhgt+int(mv.DY) > h {
					dir[1] = 1
				}
				seen[dir] = true
			}
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if !seen[[2]int{dx, dy}] {
						t.Errorf("%dx%d: no block's vector leaves the frame toward (%d,%d)", w, h, dx, dy)
					}
				}
			}
		}
	})
}

// TestConfigBoundsMatchDecoder walks each bitstream bound from both sides:
// the largest value builds an encoder whose header the decoder parses, one
// past it is refused by NewEncoder and — crafted onto the wire — by the
// decoder, so an encoder can never start a stream no decoder will take.
func TestConfigBoundsMatchDecoder(t *testing.T) {
	for _, c := range []struct {
		name     string
		ok, over Config
	}{
		{"width", Config{Width: maxDim, Height: 1}, Config{Width: maxDim + 1, Height: 1}},
		{"height", Config{Width: 1, Height: maxDim}, Config{Width: 1, Height: maxDim + 1}},
		{"pixels", Config{Width: 4096, Height: 2048}, Config{Width: 4096, Height: 2049}},
		{"block size", Config{Width: 32, Height: 24, BlockSize: maxBlockSize}, Config{Width: 32, Height: 24, BlockSize: maxBlockSize + 1}},
		{"quantizer", Config{Width: 32, Height: 24, QStep: maxQStep}, Config{Width: 32, Height: 24, QStep: maxQStep + 1}},
	} {
		enc, err := NewEncoder(c.ok)
		if err != nil {
			t.Errorf("%s at the bound: NewEncoder: %v", c.name, err)
			continue
		}
		if _, _, err := parseHeader(appendHeader(nil, Intra, enc.cfg)); err != nil {
			t.Errorf("%s at the bound: decoder rejects the encoder's header: %v", c.name, err)
		}
		if _, err := NewEncoder(c.over); err == nil {
			t.Errorf("%s past the bound: NewEncoder accepted %+v", c.name, c.over)
		}
		if _, _, err := parseHeader(appendHeader(nil, Intra, c.over.withDefaults())); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s past the bound: decoder err = %v, want ErrCorrupt", c.name, err)
		}
	}
	// Whole frames at the quantizer bound round-trip.
	p := newEncoderPair(t, Config{Width: 32, Height: 24, QStep: maxQStep})
	im := newTestImage(32, 24, []byte{3, 250, 17, 99, 180, 42, 7})
	p.encode(t, im)
	p.encode(t, im)
}

// TestEncodeSteadyStateAllocs holds the pooled encode into a recycled
// payload, as the server runs it, to no allocation but a spare one (4 an
// inter frame before the slices): the per-slice buffers, the workers' scratch
// and the slice loops are the encoder's and are reused from frame to frame.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	frames := gameFrames(t, "G3", 0, 2, 320, 180)
	enc := mustEncoder(t, Config{Width: 320, Height: 180})
	enc.SetPool(bufpool.New())
	var payload []byte
	encode := func(im *frame.Image) {
		data, _, err := enc.EncodeInto(payload[:0], im)
		if err != nil {
			t.Fatal(err)
		}
		payload = data
	}
	for i := 0; i < 2; i++ { // grow the slice buffers to both frame types
		enc.Reset()
		encode(frames[0])
		encode(frames[1])
	}
	if got := testing.AllocsPerRun(10, func() { enc.Reset(); encode(frames[0]) }); got > 1 {
		t.Errorf("pooled intra encode allocates %.1f times a frame, want <= 1", got)
	}
	if got := testing.AllocsPerRun(10, func() { encode(frames[1]) }); got > 1 {
		t.Errorf("pooled inter encode allocates %.1f times a frame, want <= 1", got)
	}
}

// encodeBenchFrames is a pooled 720p encoder and the two frames the encode
// benchmarks feed it.
func encodeBenchFrames(b *testing.B) (*Encoder, []*frame.Image) {
	frames := gameFrames(b, "G3", 0, 2, 1280, 720)
	enc, err := NewEncoder(Config{Width: 1280, Height: 720})
	if err != nil {
		b.Fatal(err)
	}
	enc.SetPool(bufpool.New())
	return enc, frames
}

// BenchmarkEncodeIntra720p is the server's keyframe encode in the form the
// server and the engine call it: a pooled encoder appending to a recycled
// payload buffer.
func BenchmarkEncodeIntra720p(b *testing.B) {
	enc, frames := encodeBenchFrames(b)
	var payload []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Reset()
		data, _, err := enc.EncodeInto(payload[:0], frames[0])
		if err != nil {
			b.Fatal(err)
		}
		payload = data
	}
}

// BenchmarkEncodeInter720p is the per-frame encode, pooled likewise. The
// reference is re-seeded by the same intra frame outside the timer every
// iteration, so every iteration codes the same inter frame.
func BenchmarkEncodeInter720p(b *testing.B) {
	enc, frames := encodeBenchFrames(b)
	var payload []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		enc.Reset()
		data, _, err := enc.EncodeInto(payload[:0], frames[0])
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if data, _, err = enc.EncodeInto(data[:0], frames[1]); err != nil {
			b.Fatal(err)
		}
		payload = data
	}
}

// TestQuantTableExhaustive holds the quantiser table to its definition at
// every step q the header allows: for every prediction difference d and
// every prediction pred an inter sample can have, the level is quantize's and
// clamp8(pred + deq) is the reconstruction clamp8(pred + level·q); for every
// intra sample v, entry v+255 holds (v+q/2)/q and clamp8(deq) is
// clamp8(level·q).
func TestQuantTableExhaustive(t *testing.T) {
	var tab quantTable
	for q := int32(1); q <= maxQStep; q++ {
		tab.fill(q)
		for d := int32(-255); d <= 255; d++ {
			e, level := tab.e[d+255], quantize(d, q)
			if e.level != level {
				t.Fatalf("q=%d d=%d: level %d, quantize %d", q, d, e.level, level)
			}
			for pred := int32(0); pred <= 255; pred++ {
				if got, want := clamp8(pred+e.deq), clamp8(pred+level*q); got != want {
					t.Fatalf("q=%d d=%d pred=%d: reconstruction %d, want %d", q, d, pred, got, want)
				}
			}
		}
		for v := int32(0); v <= 255; v++ {
			e, level := tab.e[v+255], (v+q/2)/q
			if e.level != level || clamp8(e.deq) != clamp8(level*q) {
				t.Fatalf("q=%d intra v=%d: level %d recon %d, want %d and %d", q, v, e.level, clamp8(e.deq), level, clamp8(level*q))
			}
		}
	}
}

// TestQuantTableFollowsQ changes the quantizer between frames, as the rated
// encoder does, across both frame types: the encoder must refill its table,
// so that its bytes stay the reference loops' and every frame decodes to its
// reconstruction.
func TestQuantTableFollowsQ(t *testing.T) {
	frames := gameFrames(t, "G3", 0, 6, 100, 60)
	p := newEncoderPair(t, Config{Width: 100, Height: 60, GOPSize: 3})
	for i, q := range []int{6, 40, 1, 255, 17, 6} {
		p.fast.cfg.QStep, p.ref.cfg.QStep = q, q
		p.encode(t, frames[i])
	}
}
