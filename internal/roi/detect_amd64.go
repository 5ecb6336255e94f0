package roi

// haveDetectBulk: the detector's three passes have SSE2 bodies here. A
// test switches it off to run the Go loops other GOARCHes run.
var haveDetectBulk = true

// scanOcts is scanRow's bulk over z[:n], n a positive multiple of 8.
//
//go:noescape
func scanOcts(z *float32, n int, cnt *uint32, least, most *float64, scale float64, bands *float32)

// weighQuads is weighRow's bulk over 4·quads pixels. bias points at the
// first pixel's weight, or reversed at the weight before it (the first
// pair's, loaded as one), and steps by step bytes a pixel: +8 in order, −8
// reversed.
//
//go:noescape
func weighQuads(z *float32, bias, cells *float64, layer *int16, sums *float64, k *weighConsts, quads, step int, bands *float32)

// sumPairs is sumRows over n > 0 columns.
//
//go:noescape
func sumPairs(above, r0, r1 *float64, l0, l1 *int16, sel, n int)
