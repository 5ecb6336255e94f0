package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// sigSize is the layout's closed-form size for vals: ⌈G/8⌉ bitmap bytes, 8
// per occupied group, ⌈nnz/8⌉ sign bytes and the escape list (its count,
// then a gap and |v| − 2 per escape).
func sigSize(vals []int32) int {
	groups := (len(vals) + 63) / 64
	occupied, nnz, escapes, nesc, prev := 0, 0, 0, 0, -1
	for g := 0; g < groups; g++ {
		any := false
		for i := 64 * g; i < min(64*g+64, len(vals)); i++ {
			v := vals[i]
			if v == 0 {
				continue
			}
			any = true
			nnz++
			if v < -1 || v > 1 {
				nesc++
				escapes += uvarintLen(uint64(i-prev)) + uvarintLen(uint64(max(v, -v)-2))
				prev = i
			}
		}
		if any {
			occupied++
		}
	}
	return (groups+7)/8 + 8*occupied + (nnz+7)/8 + uvarintLen(uint64(nesc)) + escapes
}

func uvarintLen(v uint64) int { return len(binary.AppendUvarint(nil, v)) }

// TestSigLayoutRoundTrip codes sequences of every length from 0 to 200 —
// whole groups and partial ones — at densities from none to every value
// non-zero, with magnitudes up to 1, 2, 255 and maxLevel, both signs: each
// reads back exactly, leaves the bytes after it alone and is exactly the
// closed-form size.
func TestSigLayoutRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trailer := []byte{0xA5, 0x00}
	for n := 0; n <= 200; n++ {
		for _, density := range []int{0, 5, 21, 50, 90, 100} {
			for _, top := range []int{1, 2, 255, maxLevel} {
				vals := make([]int32, n)
				for i := range vals {
					if rng.Intn(100) < density {
						vals[i] = int32(1 + rng.Intn(top))
						if rng.Intn(2) == 0 {
							vals[i] = -vals[i]
						}
					}
				}
				data := appendSig(nil, vals)
				if len(data) != sigSize(vals) {
					t.Fatalf("n %d density %d%% top %d: %d bytes, closed form %d", n, density, top, len(data), sigSize(vals))
				}
				s, rest, err := parseSig(append(data, trailer...), n)
				if err != nil || !bytes.Equal(rest, trailer) {
					t.Fatalf("n %d density %d%% top %d: err %v, rest % x", n, density, top, err, rest)
				}
				got := make([]int32, n)
				s.values(got)
				if !slices.Equal(got, vals) {
					t.Fatalf("n %d density %d%% top %d: read back %v, want %v", n, density, top, got, vals)
				}
			}
		}
	}
}

// TestSigLayoutZeroHeavy: 10,000 values with one non-zero cost the bitmap
// (20 bytes), one word, one sign byte and a 4-byte escape list — 33 bytes.
func TestSigLayoutZeroHeavy(t *testing.T) {
	vals := make([]int32, 10000)
	vals[5000] = -3
	data := appendSig(nil, vals)
	if len(data) != 33 {
		t.Errorf("zero-heavy sequence is %d bytes, want 33", len(data))
	}
	s, _, err := parseSig(data, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int32, len(vals))
	s.values(got)
	if !slices.Equal(got, vals) {
		t.Error("round trip wrong")
	}
}

// hostileSig is one malformed sequence of the layout and the text its error
// must carry.
type hostileSig struct {
	name, want string
	seq        []byte
}

// hostileSigs breaks the layout of an n-value sequence, n ≥ 2, every way its
// canonical form forbids, and cuts it short at every field. The cases that
// need a padding bit are left out where n leaves none.
func hostileSigs(n int) []hostileSig {
	groups := (n + 63) / 64
	nb := (groups + 7) / 8
	one := make([]int32, n)
	one[0] = 1
	// withEscapes is the sequence +1, 0, … with the escape list replaced.
	withEscapes := func(list ...uint64) []byte {
		seq := appendSig(nil, one)
		seq = seq[:len(seq)-1] // the count of 0
		for _, v := range list {
			seq = binary.AppendUvarint(seq, v)
		}
		return seq
	}
	zeroWord := make([]byte, nb+8+1)
	zeroWord[0] = 1
	signPad := appendSig(nil, one)
	signPad[nb+8] |= 2
	var out []hostileSig
	if groups%8 != 0 {
		past := appendSig(nil, make([]int32, n))
		past[nb-1] |= 1 << (groups % 8)
		out = append(out, hostileSig{"occupancy bit past the last group", "occupancy bit past the last group", past})
	}
	if n%64 != 0 {
		last := make([]int32, n)
		last[n-1] = 1
		seq := appendSig(nil, last)
		seq[nb+7] |= 0x80 // bit 63 of the last word
		out = append(out, hostileSig{"significance bit past the end", "significance bit past the sequence end", seq})
	}
	out = append(out,
		hostileSig{"occupied group with a zero word", "occupied group 0 with a zero word", zeroWord},
		hostileSig{"sign padding bit", "sign padding bit set", signPad},
		hostileSig{"more escapes than non-zeros", "2 escapes for 1 non-zero values", withEscapes(2, 1, 0, 1, 0)},
		hostileSig{"escape gap 0", "escape gap 0", withEscapes(1, 0, 0)},
		hostileSig{"escape past the end", fmt.Sprintf("escape gap %d past the sequence end", n+1), withEscapes(1, uint64(n)+1, 0)},
		hostileSig{"escape onto a zero", "escape onto zero value 1", withEscapes(1, 2, 0)},
		hostileSig{"escaped level past maxLevel", "level out of range", withEscapes(1, 1, maxLevel-1)},
		hostileSig{"overlong escape count", "overlong varint in the escape list", append(withEscapes(), 0x80, 0x00)},
		hostileSig{"overlong escape gap", "overlong varint in the escape list", append(withEscapes(1), 0x81, 0x00, 0x00)},
	)
	// −3 at 0 and +1 at n−1: every field present, the escape list 3 bytes.
	full := make([]int32, n)
	full[0], full[n-1] = -3, 1
	seq := appendSig(nil, full)
	words := nb + 8*bits.OnesCount64(uint64(1)|uint64(1)<<((n-1)/64))
	for _, c := range []struct {
		field string
		at    int
	}{
		{"occupancy bitmap", nb - 1},
		{"significance word", nb + 3},
		{"significance word", words - 1},
		{"signs", words},
		{"escape list", words + 1},
		{"escape list", len(seq) - 2},
		{"escape list", len(seq) - 1},
	} {
		out = append(out, hostileSig{"cut in the " + c.field, "truncated " + c.field, seq[:c.at]})
	}
	return out
}

// TestSigLayoutHostile runs hostileSigs through the parser at lengths with
// and without padding bits: each is refused with ErrCorrupt and its text.
func TestSigLayoutHostile(t *testing.T) {
	for _, n := range []int{2, 6, 64, 65, 640, 1000} {
		for _, c := range hostileSigs(n) {
			_, _, err := parseSig(c.seq, n)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("n %d, %s: err = %v, want ErrCorrupt with %q", n, c.name, err, c.want)
			}
		}
	}
}
