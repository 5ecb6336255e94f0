package codec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/testkit"
)

// The decoder must never panic, whatever bytes arrive — it returns
// ErrCorrupt-wrapped errors instead. These tests drive it with random
// garbage, bit-flipped valid streams and random truncations.

func TestDecodeRandomGarbageNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		dec := NewDecoder()
		// Either outcome is fine; panics fail the test harness itself.
		df, err := dec.Decode(data)
		return err != nil || df != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeGarbageWithValidMagic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		n := rng.Intn(200) + 3
		data := make([]byte, n)
		rng.Read(data)
		data[0] = magic
		data[1] = version
		data[2] = byte([]FrameType{Intra, Inter}[rng.Intn(2)])
		dec := NewDecoder()
		df, err := dec.Decode(data)
		if err == nil && df == nil {
			t.Fatal("nil frame without error")
		}
	}
}

func TestDecodeBitFlippedStream(t *testing.T) {
	f := gameFrames(t, "G1", 0, 2, 96, 54)
	enc, _ := NewEncoder(Config{Width: 96, Height: 54})
	intra, _, err := enc.Encode(f[0])
	if err != nil {
		t.Fatal(err)
	}
	inter, _, err := enc.Encode(f[1])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		dec := NewDecoder()
		if _, err := dec.Decode(intra); err != nil {
			t.Fatal(err)
		}
		corrupted := append([]byte(nil), inter...)
		// Flip 1-4 random bits.
		for k := 0; k <= rng.Intn(4); k++ {
			pos := rng.Intn(len(corrupted))
			corrupted[pos] ^= 1 << rng.Intn(8)
		}
		// Must not panic. A successful decode of corrupted data is
		// acceptable (our entropy coding has no checksums, like raw video
		// NALs); errors must be wrapped.
		df, err := dec.Decode(corrupted)
		if err == nil && df.Image == nil {
			t.Fatal("nil image without error")
		}
	}
}

func TestDecodeRandomTruncations(t *testing.T) {
	f := gameFrames(t, "G2", 0, 1, 96, 54)[0]
	enc, _ := NewEncoder(Config{Width: 96, Height: 54})
	data, _, err := enc.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := NewDecoder().Decode(data[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
}

func TestEncodeDecodeQuickRoundTrip(t *testing.T) {
	// Property: any image round-trips within the quantization bound for
	// random sizes and quantizers.
	f := func(wSeed, hSeed, qSeed uint8, pix []byte) bool {
		w := int(wSeed)%48 + 8
		h := int(hSeed)%48 + 8
		q := int(qSeed)%12 + 1
		im := newTestImage(w, h, pix)
		enc, err := NewEncoder(Config{Width: w, Height: h, QStep: q})
		if err != nil {
			return false
		}
		data, _, err := enc.Encode(im)
		if err != nil {
			return false
		}
		df, err := NewDecoder().Decode(data)
		if err != nil {
			return false
		}
		bound := q/2 + 1
		for i := range im.R {
			if testkit.AbsInt(int(im.R[i])-int(df.Image.R[i])) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func newTestImage(w, h int, pix []byte) *frame.Image {
	im := frame.NewImage(w, h)
	for i := range im.R {
		var v byte
		if len(pix) > 0 {
			v = pix[i%len(pix)]
		}
		// Keep away from the 255 clamp so the quantization bound is exact.
		if v > 250 {
			v = 250
		}
		im.R[i] = v
		im.G[i] = v / 2
		im.B[i] = 255 - v
	}
	return im
}
