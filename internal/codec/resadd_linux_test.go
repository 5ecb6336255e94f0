package codec

import (
	"runtime/debug"
	"syscall"
	"testing"
)

// TestAddWordStopsAtBandEnd runs the word kernel on bands of every length
// from 1 to 384 that end on the last byte of a readable page, the next page
// mapped with no access: a load or store one byte past the band faults. The
// sentinels of TestAddWordGuardBands cannot see a store that writes a byte
// back unchanged, as a full-word pass over a partial last word would.
func TestAddWordStopsAtBandEnd(t *testing.T) {
	needAddWord(t)
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for n := 1; n <= 6*64; n++ {
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(1 - 2*(i%2))
		}
		vals[n-1] = 3
		s, _, err := parseSig(appendSig(nil, vals), n)
		if err != nil {
			t.Fatal(err)
		}
		band := mem[page-n : page : page]
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("band of %d ending at a page boundary: %v", n, r)
				}
			}()
			addResidualsWith(band, maxQStep, &s, true)
		}()
	}
}
