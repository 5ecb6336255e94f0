//go:build !amd64

package codec

// No vector body on this GOARCH: addResiduals runs the scalar walk over
// every word and never calls the stub below.
const hasBMI2, useAddWord = false, false

func addWord(p *uint8, w, sb, esc uint64, q int32) {}
