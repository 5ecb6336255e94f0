//go:build !amd64

package sr

// haveSharpenBulk: no vector body on this GOARCH; sharpenRow never calls the
// stub below and runs sharpen8 on every word.
const haveSharpenBulk = false

func sharpen8x(dst, src *uint8, even, odd, los, his uint64, alpha float64) {}
