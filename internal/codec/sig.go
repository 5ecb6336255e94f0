package codec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// The significance layout (DESIGN.md §28) is the one entropy layer: every
// sequence a slice carries — a block row's vectors, an intra band's level
// deltas, an inter band's residual levels — is n signed levels, n known to
// both sides, written in groups of 64 as
//
//	occupancy  ⌈G/8⌉ bytes, bit g (LSB first) set iff group g has a non-zero
//	words      one little-endian uint64 per occupied group, bit i set iff
//	           value 64g+i is non-zero
//	signs      ⌈nnz/8⌉ bytes, bit k (LSB first) set iff the k-th non-zero is
//	           negative
//	escapes    uvarint count, then per non-zero of magnitude ≥ 2, in index
//	           order: uvarint gap from the previous escape's index (from −1
//	           for the first), uvarint |v| − 2
//
// where G = ⌈n/64⌉ and nnz is the number of set word bits. Every other
// non-zero is ±1. The form is canonical — an occupied group has a non-zero
// word, every padding bit is zero, escape indices strictly increase and land
// on set bits, every uvarint is in its shortest form, |v| ≤ maxLevel — and
// parseSig refuses anything else, so accepted bytes re-encode to themselves.

// maxLevel bounds the magnitude of a coded level so that its product with
// any quantizer (≤ maxQStep), plus a pixel, fits an int32 with room to
// spare. No encoder comes near it: a level is at most 255.
const maxLevel = 1 << 22

var errLevel = fmt.Errorf("%w: level out of range", ErrCorrupt)

// appendSig appends the layout of vals, every |v| ≤ maxLevel, to buf.
func appendSig(buf []byte, vals []int32) []byte {
	n := len(vals)
	occAt := len(buf)
	buf = appendZeros(buf, ((n+63)/64+7)/8)
	wordsAt := len(buf)
	nnz := 0
	for g := 0; 64*g < n; g++ {
		if w := sigWord(vals[64*g : min(64*g+64, n)]); w != 0 {
			buf[occAt+g/8] |= 1 << (g % 8)
			buf = binary.LittleEndian.AppendUint64(buf, w)
			nnz += bits.OnesCount64(w)
		}
	}
	// One walk of the non-zeros, the words read back from buf, writes the
	// signs into room made for them and appends the escapes behind a
	// one-byte count, widened at the end if it has to be.
	words, signsAt := len(buf), len(buf)
	buf = appendZeros(buf, (nnz+7)/8+1)
	escAt := len(buf)
	var acc uint64
	k, nesc, prev := 0, 0, -1
	for at, g := wordsAt, (sigGroups{occ: buf[occAt:wordsAt], bi: -1}); at < words; at += 8 {
		base := 64 * g.next()
		for w := binary.LittleEndian.Uint64(buf[at:]); w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			v := vals[i]
			acc |= uint64(uint32(v)>>31) << (uint(k) & 63)
			if k++; k&63 == 0 {
				binary.LittleEndian.PutUint64(buf[signsAt+k/8-8:], acc)
				acc = 0
			}
			if uint32(v+1) > 2 { // |v| ≥ 2
				buf = binary.AppendUvarint(buf, uint64(i-prev))
				buf = binary.AppendUvarint(buf, uint64(max(v, -v)-2))
				prev, nesc = i, nesc+1
			}
		}
	}
	for b := k &^ 63 / 8; b < (k+7)/8; b++ {
		buf[signsAt+b] = byte(acc)
		acc >>= 8
	}
	if nesc < 0x80 {
		buf[escAt-1] = byte(nesc)
		return buf
	}
	var count [binary.MaxVarintLen64]byte
	m := binary.PutUvarint(count[:], uint64(nesc))
	buf = append(buf, count[1:m]...)
	copy(buf[escAt-1+m:], buf[escAt:len(buf)-(m-1)])
	copy(buf[escAt-1:], count[:m])
	return buf
}

// appendZeros appends n zero bytes to buf. It allocates only when buf has to
// grow (append(buf, make(…)...) does, on every call, under -race).
func appendZeros(buf []byte, n int) []byte {
	buf = slices.Grow(buf, n)[:len(buf)+n]
	clear(buf[len(buf)-n:])
	return buf
}

// sigWord is the significance word of up to 64 values: bit i is bit 31 of
// vs[i]|−vs[i], set iff vs[i] ≠ 0. Eight values make a byte, without a
// branch.
func sigWord(vs []int32) uint64 {
	var w uint64
	i := 0
	for ; i+8 <= len(vs); i += 8 {
		c := vs[i : i+8 : i+8]
		b := uint32(c[0]|-c[0])>>31 | uint32(c[1]|-c[1])>>31<<1 | uint32(c[2]|-c[2])>>31<<2 | uint32(c[3]|-c[3])>>31<<3 |
			uint32(c[4]|-c[4])>>31<<4 | uint32(c[5]|-c[5])>>31<<5 | uint32(c[6]|-c[6])>>31<<6 | uint32(c[7]|-c[7])>>31<<7
		w |= uint64(b) << (uint(i) & 63)
	}
	for ; i < len(vs); i++ {
		w |= uint64(uint32(vs[i]|-vs[i])>>31) << (uint(i) & 63)
	}
	return w
}

// sigGroups walks the set bits of an occupancy bitmap, bi starting at −1:
// next returns the index of the next occupied group. The caller calls it
// once per word.
type sigGroups struct {
	occ []byte
	bi  int
	b   byte
}

func (it *sigGroups) next() int {
	for it.b == 0 {
		it.bi++
		it.b = it.occ[it.bi]
	}
	g := 8*it.bi + bits.TrailingZeros8(it.b)
	it.b &= it.b - 1
	return g
}

// sigSeq is one parsed and validated sequence: its fields, in place in the
// slice's bytes.
type sigSeq struct {
	occ, words, signs []byte
	// esc holds the escape entries, the count stripped.
	esc []byte
}

func errTruncated(field string) error {
	return fmt.Errorf("%w: truncated %s", ErrCorrupt, field)
}

// parseSig reads the layout of n values at the head of data and returns it
// with the bytes that follow. Every check happens here, in field order, so
// the reference and the fast decoder — which both start from the same
// sigSeq — refuse a sequence with the same error.
func parseSig(data []byte, n int) (sigSeq, []byte, error) {
	var s sigSeq
	groups := (n + 63) / 64
	nb := (groups + 7) / 8
	if len(data) < nb {
		return s, nil, errTruncated("occupancy bitmap")
	}
	s.occ, data = data[:nb], data[nb:]
	if r := groups % 8; r != 0 && s.occ[nb-1]>>r != 0 {
		return s, nil, fmt.Errorf("%w: occupancy bit past the last group", ErrCorrupt)
	}
	occupied := 0
	for _, b := range s.occ {
		occupied += bits.OnesCount8(b)
	}
	if len(data) < 8*occupied {
		return s, nil, errTruncated("significance word")
	}
	s.words, data = data[:8*occupied], data[8*occupied:]
	nnz := 0
	g := sigGroups{occ: s.occ, bi: -1}
	for at := 0; at < len(s.words); at += 8 {
		gi := g.next()
		w := binary.LittleEndian.Uint64(s.words[at:])
		if w == 0 {
			return s, nil, fmt.Errorf("%w: occupied group %d with a zero word", ErrCorrupt, gi)
		}
		if gi == groups-1 && n%64 != 0 && w>>(n%64) != 0 {
			return s, nil, fmt.Errorf("%w: significance bit past the sequence end", ErrCorrupt)
		}
		nnz += bits.OnesCount64(w)
	}
	ns := (nnz + 7) / 8
	if len(data) < ns {
		return s, nil, errTruncated("signs")
	}
	s.signs, data = data[:ns], data[ns:]
	if r := nnz % 8; r != 0 && s.signs[ns-1]>>r != 0 {
		return s, nil, fmt.Errorf("%w: sign padding bit set", ErrCorrupt)
	}
	count, m, err := escUvarint(data)
	if err != nil {
		return s, nil, err
	}
	if count > uint64(nnz) {
		return s, nil, fmt.Errorf("%w: %d escapes for %d non-zero values", ErrCorrupt, count, nnz)
	}
	data = data[m:]
	s.esc = data
	// cur is the group of the last escape and word its word's offset: the
	// indices increase, so one forward walk of the bitmap finds every word.
	prev, cur, word := -1, -1, -8
	for e := uint64(0); e < count; e++ {
		gap, m, err := escUvarint(data)
		if err != nil {
			return s, nil, err
		}
		mag, m2, err := escUvarint(data[m:])
		if err != nil {
			return s, nil, err
		}
		data = data[m+m2:]
		if gap == 0 {
			return s, nil, fmt.Errorf("%w: escape gap 0", ErrCorrupt)
		}
		if gap > uint64(n-1-prev) {
			return s, nil, fmt.Errorf("%w: escape gap %d past the sequence end", ErrCorrupt, gap)
		}
		i := prev + int(gap)
		for ; cur < i/64; cur++ {
			word += 8 * int(s.occ[(cur+1)/8]>>((cur+1)%8)&1)
		}
		if s.occ[cur/8]>>(cur%8)&1 == 0 || binary.LittleEndian.Uint64(s.words[word:])>>(i%64)&1 == 0 {
			return s, nil, fmt.Errorf("%w: escape onto zero value %d", ErrCorrupt, i)
		}
		if mag > maxLevel-2 {
			return s, nil, errLevel
		}
		prev = i
	}
	s.esc = s.esc[:len(s.esc)-len(data)]
	return s, data, nil
}

// escUvarint reads one uvarint of the escape list. An overlong form — a
// last byte of 0 after the first — is refused, so that every value has one
// encoding.
func escUvarint(data []byte) (uint64, int, error) {
	v, m := binary.Uvarint(data)
	if m <= 0 {
		return 0, 0, errTruncated("escape list")
	}
	if m > 1 && data[m-1] == 0 {
		return 0, 0, fmt.Errorf("%w: overlong varint in the escape list", ErrCorrupt)
	}
	return v, m, nil
}

// sigEscapes reads a validated escape list in order: idx is the index of the
// current escape (−1 once none is left) and mag its magnitude.
type sigEscapes struct {
	data []byte
	idx  int
	mag  int32
}

func (s *sigSeq) escapes() sigEscapes {
	e := sigEscapes{data: s.esc, idx: -1}
	e.next()
	return e
}

// next moves to the following escape.
func (e *sigEscapes) next() {
	if len(e.data) == 0 {
		e.idx = -1
		return
	}
	gap, m := binary.Uvarint(e.data)
	mag, m2 := binary.Uvarint(e.data[m:])
	e.data = e.data[m+m2:]
	e.idx += int(gap)
	e.mag = int32(mag) + 2
}

// signBits returns the 64 sign bits from the k-th on (zero past the end):
// a group's, read once per word.
func signBits(signs []byte, k int) uint64 {
	i, sh := k>>3, uint(k&7)
	if i+9 <= len(signs) {
		return binary.LittleEndian.Uint64(signs[i:])>>sh | uint64(signs[i+8])<<(64-sh)
	}
	var b [9]byte
	copy(b[:], signs[i:])
	return binary.LittleEndian.Uint64(b[:])>>sh | uint64(b[8])<<(64-sh)
}

// values writes the sequence into out, of length n, one value at a time:
// the reference reading of the layout that the decoder's word walks are
// tested against.
func (s *sigSeq) values(out []int32) {
	esc := s.escapes()
	j, k := 0, 0
	var w uint64
	for i := range out {
		if i%64 == 0 {
			w = 0
			if g := i / 64; s.occ[g/8]>>(g%8)&1 != 0 {
				w = binary.LittleEndian.Uint64(s.words[8*j:])
				j++
			}
		}
		out[i] = 0
		if w>>(i%64)&1 == 0 {
			continue
		}
		v := int32(1)
		if i == esc.idx {
			v = esc.mag
			esc.next()
		}
		if s.signs[k/8]>>(k%8)&1 != 0 {
			v = -v
		}
		k++
		out[i] = v
	}
}
