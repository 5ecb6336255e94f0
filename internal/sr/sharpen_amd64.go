package sr

// haveSharpenBulk: the sharpen's output expression has an SSE2 body here.
const haveSharpenBulk = true

// sharpen8x is sharpen8 on eight pixels, dst[0:8] from src[0:8].
//
//go:noescape
func sharpen8x(dst, src *uint8, even, odd, los, his uint64, alpha float64)
