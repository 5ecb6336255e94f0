//go:build !amd64

package codec

// haveSAD16: no vector body on this GOARCH; sadRows never calls the stub
// below and runs its scalar loop over the whole width.
const haveSAD16 = false

func sad16(cur, ref *uint8, cstride, rstride, n, h int) int { return 0 }
