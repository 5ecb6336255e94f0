package upscale

import (
	"encoding/binary"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/parallel"
)

// The ×2 bilinear fast path.
//
// With pixel-centre alignment, destination sample 2i sits at source
// coordinate i−¼ and 2i+1 at i+¼, so the polyphase bank degenerates to the
// two taps {¼, ¾} (a single tap of weight 1 at the borders, i.e. a
// replicated edge). ¼·a + ¾·b is exact in float64 for byte inputs and
// clampByte rounds it as ⌊(a+3b)/4 + ½⌋ = (a+3b+2)>>2, which never leaves
// [0, 255]. The generic resampler rounds to bytes after the horizontal pass
// (its intermediate is an Image), so applying the same integer form
// horizontally and then vertically reproduces it bit for bit — the
// differential test in bilinear2x_test.go holds the two together.
//
// The kernel is fused: a worker keeps the horizontally expanded rows above,
// at and below the current source row in three rolling buffers and emits the
// two destination rows between them, so there is no W·2×H intermediate
// image. Both passes run sixteen byte lanes per instruction on amd64's SSE2
// (bilinear2x_amd64.s, the ISA baseline, so no feature detection) and
// eight per 64-bit word elsewhere and in the tails (expandWords,
// blendWords) — the same identity, so the same bytes.

// rows2xScratch holds each worker's three rolling rows (3 planes × 2W
// bytes each), grown to the widest frame seen.
var rows2xScratch = parallel.NewScratch(func() *[]uint8 { return new([]uint8) })

// bilinear2x writes the ×2 bilinear upscale of src into dst, which must be
// exactly 2·src.W × 2·src.H. Either image may be a strided view.
func bilinear2x(dst, src *frame.Image) {
	w, w2 := src.W, 2*src.W
	// Chunks own disjoint source-row ranges and therefore disjoint
	// destination rows; a chunk re-expands one neighbour row on each side.
	parallel.ForWith(src.H, rows2xScratch, func(y0, y1 int, sp *[]uint8) {
		buf := *sp
		if need := 9 * w2; cap(buf) < need {
			buf = make([]uint8, need)
			*sp = buf
		} else {
			buf = buf[:need]
		}
		above, cur, below := buf[:3*w2], buf[3*w2:6*w2], buf[6*w2:]
		expand := func(row []uint8, y int) {
			o := y * src.Stride
			expandRow2x(row[:w2], src.R[o:o+w])
			expandRow2x(row[w2:2*w2], src.G[o:o+w])
			expandRow2x(row[2*w2:], src.B[o:o+w])
		}
		expand(cur, y0)
		if y0 > 0 {
			expand(above, y0-1)
		} else {
			copy(above, cur) // replicated top edge
		}
		for y := y0; y < y1; y++ {
			if y+1 < src.H {
				expand(below, y+1)
			} else {
				copy(below, cur) // replicated bottom edge
			}
			top, bot := 2*y*dst.Stride, (2*y+1)*dst.Stride
			blendRow2x(dst.R[top:top+w2], above[:w2], cur[:w2])
			blendRow2x(dst.G[top:top+w2], above[w2:2*w2], cur[w2:2*w2])
			blendRow2x(dst.B[top:top+w2], above[2*w2:], cur[2*w2:])
			blendRow2x(dst.R[bot:bot+w2], below[:w2], cur[:w2])
			blendRow2x(dst.G[bot:bot+w2], below[w2:2*w2], cur[w2:2*w2])
			blendRow2x(dst.B[bot:bot+w2], below[2*w2:], cur[2*w2:])
			above, cur, below = cur, below, above
		}
	})
}

// expandRow2x is the horizontal pass of one plane row: dst (2·len(src)
// bytes) receives (src[i−1] + 3·src[i] + 2)>>2 at 2i and
// (3·src[i] + src[i+1] + 2)>>2 at 2i+1, with replicated edges. Interior
// pixels go sixteen at a time through the vector bulk where the GOARCH has
// one, then through expandWords. The bulk reads src[i−1 .. i+16] for a
// block at i, so it covers i ∈ [1, 1+m) with m = (n−2) rounded down to 16,
// which keeps its last read at src[m+1] ≤ src[n−1] and its last write at
// dst[2m+1] < dst[2n].
func expandRow2x(dst, src []uint8) {
	n := len(src)
	dst = dst[:2*n]
	i := 1
	if m := (n - 2) &^ 15; haveBulk2x && m > 0 {
		expand16(&dst[2], &src[1], m)
		i += m
	}
	expandWords(dst, src, i)
}

// expandWords finishes expandRow2x from source index i ≥ 1: the replicated
// left edge, then eight pixels at a time — the words one byte to the left
// and right of the current one are its neighbours, blend8 gives the eight
// even and the eight odd outputs, and two byte-spreads per half interleave
// them — then the scalar right edge. expandWords(dst, src, 1) is the whole
// portable pass.
func expandWords(dst, src []uint8, i int) {
	n := len(src)
	scalar := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c3 := 3*uint32(src[i]) + 2
			dst[2*i] = uint8((uint32(src[max(i-1, 0)]) + c3) >> 2)
			dst[2*i+1] = uint8((c3 + uint32(src[min(i+1, n-1)])) >> 2)
		}
	}
	scalar(0, min(1, n))
	for ; i+9 <= n; i += 8 {
		c := binary.LittleEndian.Uint64(src[i:])
		even := blend8(binary.LittleEndian.Uint64(src[i-1:]), c)
		odd := blend8(binary.LittleEndian.Uint64(src[i+1:]), c)
		binary.LittleEndian.PutUint64(dst[2*i:], spread4(even)|spread4(odd)<<8)
		binary.LittleEndian.PutUint64(dst[2*i+8:], spread4(even>>32)|spread4(odd>>32)<<8)
	}
	scalar(i, n)
}

// blend8 is (far + 3·near + 2)>>2 on each of the eight byte lanes of a
// word, using the identity
// (a + 3b + 2)>>2 == avgUp(avgDown(a, b), b), where avgDown = ⌊(x+y)/2⌋ and
// avgUp = ⌈(x+y)/2⌉: when a+b is even the inner floor loses nothing, and
// when it is odd a+3b is odd too, so the missing 1 cannot carry into the
// quotient. Both averages have carry-free per-byte forms
// ((x&y) + ((x^y)>>1), (x|y) − ((x^y)>>1) with the shifted-out bits masked),
// so no lane disturbs its neighbour.
func blend8(far, near uint64) uint64 {
	const lsbOff = 0xFEFEFEFEFEFEFEFE
	m := (far & near) + (((far ^ near) & lsbOff) >> 1)
	return (m | near) - (((m ^ near) & lsbOff) >> 1)
}

// spread4 moves the low four bytes of x to the even byte lanes of a word.
func spread4(x uint64) uint64 {
	x &= 0xFFFFFFFF
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	return (x | x<<8) & 0x00FF00FF00FF00FF
}

// blendRow2x is the vertical pass of one plane row:
// dst[i] = (far[i] + 3·near[i] + 2)>>2, sixteen bytes at a time through the
// vector bulk where the GOARCH has one, the rest through blendWords.
func blendRow2x(dst, far, near []uint8) {
	n := len(dst)
	far, near = far[:n], near[:n]
	i := 0
	if m := n &^ 15; haveBulk2x && m > 0 {
		blend16(&dst[0], &far[0], &near[0], m)
		i = m
	}
	blendWords(dst, far, near, i)
}

// blendWords finishes blendRow2x from index i, eight bytes a word, then
// byte by byte; blendWords(dst, far, near, 0) is the whole portable pass.
// far and near are at least len(dst) long.
func blendWords(dst, far, near []uint8, i int) {
	n := len(dst)
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			blend8(binary.LittleEndian.Uint64(far[i:]), binary.LittleEndian.Uint64(near[i:])))
	}
	for ; i < n; i++ {
		dst[i] = uint8((uint32(far[i]) + 3*uint32(near[i]) + 2) >> 2)
	}
}
