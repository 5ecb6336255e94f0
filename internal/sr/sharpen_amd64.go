package sr

// haveSharpenBulk: the sharpen's row reductions and its output have SSE2
// bodies here. A test switches it off to run the Go twins other GOARCHes
// run.
var haveSharpenBulk = true

// reduce16 is reduceGo over the n lanes of pad, n a positive multiple of
// 16: red from pad[0 : n+2].
//
//go:noescape
func reduce16(red, pad *uint8, n int)

// sharpen16 is sharpenGo on n pixels, n a positive multiple of 16: dst[0:n]
// from src[0:n] and the reductions at a, c and b.
//
//go:noescape
func sharpen16(dst, src, a, c, b *uint8, n int)
