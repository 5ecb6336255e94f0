package codec

import (
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
	// Crafted inter frames: vectors off every edge; the header an RoI
	// quantizer once had; a set half-pel flag.
	rng := rand.New(rand.NewSource(1))
	cfg := Config{Width: 32, Height: 40}
	f.Add(craftInter(cfg, []MV{{-128, 127}, {127, -128}, {16, 8}, {0, 0}}, rng))
	f.Add(appendSlices(flaggedHeader(Inter, cfg, 1, []uint64{5, 3, 20, 21, 2}, 0), craftInterSlices(cfg, []MV{{3, -2}, {-40, 1}}, rng)))
	f.Add(appendSlices(flaggedHeader(Inter, cfg, 0, nil, 1), craftInterSlices(cfg, []MV{{5, 3}, {-1, -1}}, rng)))
	// RoI headers whose far edge wraps when added.
	for _, data := range overflowingRoIStreams(rng) {
		f.Add(data)
	}
	// Both frames with the slice table and the slices broken every way the
	// grammar allows.
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

func FuzzSignedRLE(f *testing.F) {
	f.Add([]byte{0x00, 0x05}, 10)
	f.Add([]byte{0x02, 0x01, 0x03}, 3)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<16 {
			return
		}
		vals, rest, err := decodeSignedRLE(data, n)
		if err != nil {
			return
		}
		if len(vals) != n {
			t.Fatalf("decoded %d values, want %d", len(vals), n)
		}
		// Round-trip: re-encoding the decoded values and decoding again
		// must reproduce them (canonical-form property).
		re := appendSignedRLE(nil, vals)
		back, rest2, err := decodeSignedRLE(re, n)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-decode failed: %v", err)
		}
		for i := range vals {
			if vals[i] != back[i] {
				t.Fatalf("value %d changed across round trip", i)
			}
		}
		_ = rest
	})
}
