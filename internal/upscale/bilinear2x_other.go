//go:build !amd64

package upscale

// haveBulk2x: no vector body on this GOARCH; the wrappers never call the
// stubs below and run the SWAR word loops from the first pixel.
const haveBulk2x = false

func expand16(dst, src *uint8, n int)      {}
func blend16(dst, far, near *uint8, n int) {}
