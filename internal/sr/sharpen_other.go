//go:build !amd64

package sr

// haveSharpenBulk: no vector bodies on this GOARCH; the wrappers never call
// the stubs below and run the Go twins on every pixel.
var haveSharpenBulk = false

func reduce16(red, pad *uint8, n int)           {}
func sharpen16(dst, src, a, c, b *uint8, n int) {}
