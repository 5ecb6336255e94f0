//go:build !amd64

package upscale

// haveLanczosBulk: no vector body on this GOARCH; the wrappers never call
// the stubs below and run the Go loops from the first sample.
const haveLanczosBulk = false

func across6Pairs(dst, s *float64, pw *[12]float64, n int)                       {}
func down6x8(out *uint8, r0, r1, r2, r3, r4, r5 *float64, wt *[6]float64, n int) {}
