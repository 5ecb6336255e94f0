package codec

// haveSAD16: the motion search's SAD has an SSE2 body here.
const haveSAD16 = true

// sad16 sums |cur − ref| over h rows of n bytes, n a multiple of 16: row j
// reads cur[j·cstride : j·cstride+n] and ref[j·rstride : j·rstride+n]. A
// reference stride of 0 reads one row h times.
//
//go:noescape
func sad16(cur, ref *uint8, cstride, rstride, n, h int) int
