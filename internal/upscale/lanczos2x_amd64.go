package upscale

// haveLanczosBulk: the ×2 Lanczos-3 MACs have an SSE2 body here.
const haveLanczosBulk = true

// across6Pairs is across6's bulk: for k < n it writes the interior pair
// dst[2k], dst[2k+1] from s[k … k+6] and the interleaved phases pw.
//
//go:noescape
func across6Pairs(dst, s *float64, pw *[12]float64, n int)

// down6x8 is down6's bulk over out[:n], reading r0 … r5 [:n]. n is a
// multiple of 8.
//
//go:noescape
func down6x8(out *uint8, r0, r1, r2, r3, r4, r5 *float64, wt *[6]float64, n int)
