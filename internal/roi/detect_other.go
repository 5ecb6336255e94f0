//go:build !amd64

package roi

// haveDetectBulk: no vector bodies on this GOARCH; the wrappers never call
// the stubs below and run the Go loops over every pixel.
var haveDetectBulk = false

func scanOcts(z *float32, n int, cnt *uint32, least, most *float64, scale float64, bands *float32) {}
func weighQuads(z *float32, bias, cells *float64, layer *int16, sums *float64, k *weighConsts, quads, step int, bands *float32) {
}
func sumPairs(above, r0, r1 *float64, l0, l1 *int16, sel, n int) {}
