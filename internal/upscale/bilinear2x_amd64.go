package upscale

// haveBulk2x: the ×2 bilinear's bulk loops have an SSE2 body here.
const haveBulk2x = true

// expand16 is expandRow2x's bulk: for k = 0, 16, …, n−16 it reads
// src[k−1 .. k+16] and writes dst[2k .. 2k+32). n is a multiple of 16.
//
//go:noescape
func expand16(dst, src *uint8, n int)

// blend16 is blendRow2x's bulk over dst[:n], far[:n] and near[:n]. n is a
// multiple of 16.
//
//go:noescape
func blend16(dst, far, near *uint8, n int)
