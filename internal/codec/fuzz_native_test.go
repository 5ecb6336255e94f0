package codec

import (
	"bytes"
	"math/rand"
	"testing"

	"gamestreamsr/internal/frame"
)

// Native Go fuzz targets (run in regression mode as part of `go test`;
// `go test -fuzz=FuzzDecode ./internal/codec` explores further). The
// invariant under fuzz is total robustness: whatever the bytes, Decode
// returns an error or a well-formed frame — never a panic — and the
// row-slice fast path and the clamped reference loops agree on which, and on
// every byte of the frame.

func FuzzDecode(f *testing.F) {
	// Seed with real bitstreams of both frame types, three bands each.
	img := frame.NewImage(32, 40)
	for i := range img.R {
		img.R[i] = uint8(i)
		img.G[i] = uint8(2 * i)
		img.B[i] = uint8(3 * i)
	}
	enc, err := NewEncoder(Config{Width: 32, Height: 40, GOPSize: 2})
	if err != nil {
		f.Fatal(err)
	}
	intra, _, err := enc.Encode(img)
	if err != nil {
		f.Fatal(err)
	}
	inter, _, err := enc.Encode(img)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(intra)
	f.Add(inter)
	f.Add([]byte{magic, version, byte(Intra)})
	f.Add([]byte{})
	// Crafted inter frames: vectors off every edge; behind the header, the
	// fields version 3 wrote after the quantizer — an RoI flag with the
	// rectangle it once announced, a set half-pel flag — which version 4
	// reads as slice lengths.
	rng := rand.New(rand.NewSource(1))
	cfg := Config{Width: 32, Height: 40}
	f.Add(craftInter(cfg, []MV{{-128, 127}, {127, -128}, {16, 8}, {0, 0}}, rng))
	f.Add(appendSlices(v3FlagHeader(Inter, cfg, 1, []uint64{5, 3, 20, 21, 2}, 0), craftInterSlices(cfg, []MV{{3, -2}, {-40, 1}}, rng)))
	f.Add(appendSlices(v3FlagHeader(Inter, cfg, 0, nil, 1), craftInterSlices(cfg, []MV{{5, 3}, {-1, -1}}, rng)))
	// Version 3's RoI headers whose far edge wraps when added.
	for _, data := range overflowingRoIStreams(rng) {
		f.Add(data)
	}
	// Both frames with the slice table, the slices and the significance
	// layout broken every way the grammar allows.
	for _, good := range [][]byte{intra, inter} {
		for _, bad := range hostileFramings(f, good) {
			f.Add(bad.data)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fast, ref := NewDecoder(), referenceDecoder()
		// Seed a reference so inter frames have something to predict from.
		if err := sameDecode(t, fast, ref, intra); err != nil {
			t.Fatal(err)
		}
		// Either outcome is fine as long as both paths reach it; a panic
		// (a nil frame included) fails the run.
		if sameDecode(t, fast, ref, data) == nil && (fast.prev.W <= 0 || fast.prev.H <= 0) {
			t.Fatal("successful decode returned empty geometry")
		}
	})
}

// FuzzEncode drives the encoder with arbitrary planes, geometry, quantizer
// and search range: the row-slice path must emit the reference loops' bytes
// and reconstruction, and a decoder must reproduce that reconstruction
// (encoderPair.encode asserts all three), over an intra frame and two inter
// frames predicted from it.
func FuzzEncode(f *testing.F) {
	f.Add([]byte{3, 250, 17, 99, 180, 42, 7}, uint8(32), uint8(24), uint8(6), uint8(12))
	f.Add([]byte{0, 255, 0, 255, 128}, uint8(50), uint8(35), uint8(255), uint8(127))
	f.Add([]byte{9, 8, 7, 200, 100}, uint8(17), uint8(5), uint8(1), uint8(1))
	f.Add([]byte{}, uint8(1), uint8(1), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, pix []byte, w, h, q, search uint8) {
		W, H := int(w%64)+1, int(h%64)+1
		p := newEncoderPair(t, Config{Width: W, Height: H, GOPSize: 3, QStep: int(q), SearchRange: int(search)})
		for k := 0; k < 3; k++ {
			// Each frame is the byte pattern at its own phase and stride, so
			// consecutive frames are related but not equal.
			im := frame.NewImage(W, H)
			for i := range im.R {
				if len(pix) > 0 {
					im.R[i] = pix[(i+k)%len(pix)]
					im.G[i] = pix[(i+3*k)%len(pix)]
					im.B[i] = pix[(2*i+k)%len(pix)]
				}
			}
			p.encode(t, im)
		}
	})
}

// FuzzSigLayout: whatever bytes the layout parser accepts for n values
// re-encode to themselves — the form is canonical, so no two byte strings
// carry one sequence — and the decoder's word walks agree with the value
// reading on them.
func FuzzSigLayout(f *testing.F) {
	f.Add(appendSig(nil, []int32{0, 1, -1, 2, 0, -300, 0, 0, 7}), 9)
	f.Add([]byte{0x01, 0x05, 0, 0, 0, 0, 0, 0, 0, 0x02, 0x01, 0x01, 0x00}, 10)
	f.Add(appendSig(nil, make([]int32, 130)), 130)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<12 {
			return
		}
		s, rest, err := parseSig(data, n)
		if err != nil {
			return
		}
		vals := make([]int32, n)
		s.values(vals)
		if re := appendSig(nil, vals); !bytes.Equal(re, data[:len(data)-len(rest)]) {
			t.Fatalf("accepted % x re-encodes to % x", data[:len(data)-len(rest)], re)
		}
		checkWalks(t, vals)
	})
}

// FuzzSAD: over arbitrary planes, block sizes and vectors whose columns stay
// inside the frame (rows may leave it), sadInside — the vector body and its
// scalar tail — equals the clamped reference sad.
func FuzzSAD(f *testing.F) {
	f.Add([]byte{3, 250, 17, 99, 180, 42, 7}, []byte{0, 255, 128}, uint8(64), uint8(40), uint8(16), uint8(16), uint8(16), uint8(8), int8(-3), int8(2))
	f.Add([]byte{1}, []byte{254, 2}, uint8(90), uint8(20), uint8(47), uint8(5), uint8(1), uint8(19), int8(40), int8(-30))
	f.Add([]byte{9, 8, 7}, []byte{200, 100}, uint8(33), uint8(39), uint8(20), uint8(15), uint8(5), uint8(30), int8(-7), int8(5))
	f.Add([]byte{}, []byte{}, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), int8(0), int8(0))
	f.Fuzz(func(t *testing.T, cpix, rpix []byte, w8, h8, bw, bh, x8, y8 uint8, dx8, dy8 int8) {
		W, H := int(w8%96)+1, int(h8%48)+1
		x, y := int(x8)%W, int(y8)%H
		w, h := min(int(bw)%48+1, W-x), min(int(bh)%16+1, H-y)
		// dx is folded into [−x, W−x−w], the vectors whose columns stay
		// inside; dy is free.
		dx, dy := int(dx8)%(W-w+1)-x, int(dy8)
		if dx < -x {
			dx += W - w + 1
		}
		cur, ref := make([]uint8, W*H), make([]uint8, W*H)
		for i := range cur {
			if len(cpix) > 0 {
				cur[i] = cpix[i%len(cpix)] ^ uint8(i)
			}
			if len(rpix) > 0 {
				ref[i] = rpix[(3*i)%len(rpix)] + uint8(i>>3)
			}
		}
		if got, want := sadInside(cur, ref, W, H, x, y, w, h, dx, dy), sad(cur, ref, W, H, x, y, w, h, dx, dy); got != want {
			t.Fatalf("%dx%d block at (%d, %d), vector (%d, %d) in a %dx%d frame: sadInside %d, sad %d", w, h, x, y, dx, dy, W, H, got, want)
		}
	})
}
