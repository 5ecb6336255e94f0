package codec

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"gamestreamsr/internal/bufpool"
)

// needAddWord skips a test of addWord where it cannot run: off amd64, or on
// an amd64 CPU without BMI2.
func needAddWord(t testing.TB) {
	t.Helper()
	if !hasBMI2 {
		t.Skip("no PDEP on this CPU or GOARCH: addResiduals runs the walk alone")
	}
}

// checkAddForms codes vals, adds them at q onto pred through the walk and
// through the word kernel, and requires both to equal the reference
// expression clamp8(pred + v·q) byte for byte.
func checkAddForms(t testing.TB, vals []int32, pred []uint8, q int32) {
	t.Helper()
	s, rest, err := parseSig(appendSig(nil, vals), len(vals))
	if err != nil || len(rest) != 0 {
		t.Fatalf("%d values: err %v, %d spare bytes", len(vals), err, len(rest))
	}
	want := make([]uint8, len(vals))
	for i, v := range vals {
		want[i] = clamp8(int32(pred[i]) + v*q)
	}
	walk, words := slices.Clone(pred), slices.Clone(pred)
	addResidualsWith(walk, q, &s, false)
	addResidualsWith(words, q, &s, true)
	if !bytes.Equal(walk, want) {
		t.Fatalf("q %d, %d values: the walk differs from clamp8(pred + v·q) at %d", q, len(vals), firstDiff(walk, want))
	}
	if !bytes.Equal(words, walk) {
		i := firstDiff(words, walk)
		t.Fatalf("q %d, %d values: the word kernel wrote %d at %d (level %d onto %d), the walk %d", q, len(vals), words[i], i, vals[i], pred[i], walk[i])
	}
}

func firstDiff(a, b []uint8) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestAddResidualsWordsMatchWalk holds the word kernel to the scalar walk
// and both to the reference expression: every q the header admits (1–255)
// onto predictions of 0 and of 255 and a ramp, each through all-ones words
// of ±1, mixed-sign words, every single-bit word with both signs, escapes
// on bit 0 and bit 63 of a word with both signs, and a band of 3½ words,
// whose partial last word only the walk may take.
func TestAddResidualsWordsMatchWalk(t *testing.T) {
	needAddWord(t)
	const n = 64*3 + 32
	preds := [][]uint8{make([]uint8, n), bytes.Repeat([]byte{255}, n), make([]uint8, n)}
	for i := range preds[2] {
		preds[2][i] = uint8(37*i + 11)
	}
	var cases [][]int32
	plus, minus, mixed := make([]int32, n), make([]int32, n), make([]int32, n)
	for i := range plus {
		plus[i], minus[i], mixed[i] = 1, -1, int32(1-2*(i*i/3%2))
	}
	cases = append(cases, plus, minus, mixed)
	for _, v := range []int32{1, -1} {
		for b := 0; b < 64; b++ {
			single := make([]int32, n)
			single[64+b], single[192+b%32] = v, -v
			cases = append(cases, single)
		}
	}
	for _, e := range []int32{2, -2, 300, -300, maxLevel, -maxLevel} {
		esc := slices.Clone(mixed)
		esc[0], esc[63], esc[64], esc[127], esc[n-1] = e, -e, -e, e, e
		cases = append(cases, esc)
		lone := make([]int32, n)
		lone[128], lone[191] = e, -e
		cases = append(cases, lone)
	}
	for q := int32(1); q <= maxQStep; q++ {
		for _, vals := range cases {
			for _, pred := range preds {
				checkAddForms(t, vals, pred, q)
			}
		}
	}
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 300; trial++ {
		vals, pred := make([]int32, rng.Intn(600)), make([]uint8, 600)
		density := rng.Intn(101)
		for i := range vals {
			if rng.Intn(100) < density {
				vals[i] = int32(rng.Intn(11) - 5)
			}
		}
		rng.Read(pred)
		checkAddForms(t, vals, pred[:len(vals)], int32(1+rng.Intn(maxQStep)))
	}
}

// TestAddWordGuardBands runs the word kernel on bands of every length from
// one to six words, whole and partial, inside a buffer with 64 sentinel
// bytes on each side: every value non-zero, of alternating sign, with
// escapes at both ends, at q 255, so that a lane added at the wrong offset
// moves a byte by 255 either way. The sentinels must not change and the band
// must equal the walk's.
func TestAddWordGuardBands(t *testing.T) {
	needAddWord(t)
	const guard = 64
	for n := 1; n <= 6*64; n++ {
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(1 - 2*(i%2))
		}
		vals[0], vals[n-1] = 5, -5
		s, _, err := parseSig(appendSig(nil, vals), n)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]uint8, guard+n+guard)
		for i := range buf {
			buf[i] = uint8(128 + i%7)
		}
		sentinel := slices.Clone(buf)
		walk := slices.Clone(buf[guard : guard+n])
		addResidualsWith(walk, maxQStep, &s, false)
		addResidualsWith(buf[guard:guard+n], maxQStep, &s, true)
		if !bytes.Equal(buf[:guard], sentinel[:guard]) || !bytes.Equal(buf[guard+n:], sentinel[guard+n:]) {
			t.Fatalf("band of %d: a sentinel byte changed", n)
		}
		if !bytes.Equal(buf[guard:guard+n], walk) {
			t.Fatalf("band of %d: the word kernel differs from the walk at %d", n, firstDiff(buf[guard:guard+n], walk))
		}
	}
}

// FuzzAddResiduals: over arbitrary levels — each level byte a signed ±127,
// every sixteenth one scaled into an escape up to ±127·1021 — put through
// appendSig and parseSig, arbitrary prediction bytes and q in 1–255, the
// word kernel writes what the walk writes, and both what clamp8(pred + v·q)
// gives. The race detector does not see inside assembly; this is the
// kernel's cover there.
func FuzzAddResiduals(f *testing.F) {
	f.Add([]byte{1, 0, 255, 2, 0, 0, 0x80, 7}, []byte{0, 255, 128}, uint8(5))
	f.Add(bytes.Repeat([]byte{1, 255}, 100), []byte{250, 3}, uint8(254))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 9}, 70), []byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, levels, pred []byte, q8 uint8) {
		needAddWord(t)
		if len(levels) > 1<<12 {
			return
		}
		vals, base := make([]int32, len(levels)), make([]uint8, len(levels))
		for i, b := range levels {
			vals[i] = int32(int8(b))
			if i%16 == 15 {
				vals[i] *= 1021
			}
			if len(pred) > 0 {
				base[i] = pred[i%len(pred)] ^ uint8(i/len(pred))
			}
		}
		checkAddForms(t, vals, base, int32(q8)%maxQStep+1)
	})
}

// BenchmarkAddResiduals720p is the residual add alone: the three plane
// walks of every band of one G3 inter frame at 1280×720, q 6, with no parse
// and no prediction around them, each onto the decoded frame's pixels,
// which are restored outside the timer.
func BenchmarkAddResiduals720p(b *testing.B) {
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
	if _, err := dec.Decode(intra); err != nil {
		b.Fatal(err)
	}
	df, err := dec.Decode(inter)
	if err != nil {
		b.Fatal(err)
	}
	side, im := df.Side, df.Image
	planes := [3][]uint8{im.R, im.G, im.B}
	saved := [3][]uint8{slices.Clone(im.R), slices.Clone(im.G), slices.Clone(im.B)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for p := range planes {
			copy(planes[p], saved[p])
		}
		b.StartTimer()
		for by := range side.bands {
			y := by * side.BlockSize
			band, n := y*side.W, min(side.BlockSize, side.H-y)*side.W
			for p := range planes {
				addResiduals(planes[p][band:band+n], side.q, &side.bands[by][p])
			}
		}
	}
}
