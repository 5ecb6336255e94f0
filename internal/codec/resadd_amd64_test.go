package codec

import "testing"

// TestPDEPGate: the kernel runs wherever leaf 7 reports BMI2, except on AMD
// families below 0x19, whose PDEP is microcoded.
func TestPDEPGate(t *testing.T) {
	const bmi2 = 1 << 8
	amd := [3]uint32{0x68747541, 0x444d4163, 0x69746e65}   // "Auth", "cAMD", "enti" in EBX, ECX, EDX
	intel := [3]uint32{0x756e6547, 0x6c65746e, 0x49656e69} // "Genu", "ntel", "ineI"
	sig := func(family uint32) uint32 {
		if family < 0xf {
			return family << 8
		}
		return 0xf<<8 | (family-0xf)<<20
	}
	for _, c := range []struct {
		vendor    [3]uint32
		family    uint32
		ext       uint32
		has, fast bool
	}{
		{intel, 6, bmi2, true, true},
		{intel, 6, 0, false, false},
		{amd, 0x15, 0, false, false},
		{amd, 0x17, bmi2, true, false}, // Zen, Zen 2
		{amd, 0x18, bmi2, true, false},
		{amd, 0x19, bmi2, true, true}, // Zen 3, Zen 4
		{amd, 0x1a, bmi2, true, true}, // Zen 5
	} {
		has, fast := pdepGate(c.vendor[0], c.vendor[1], c.vendor[2], sig(c.family), c.ext)
		if has != c.has || fast != c.fast {
			t.Errorf("vendor %x family %#x, leaf 7 EBX %#x: has %v fast %v, want %v %v", c.vendor, c.family, c.ext, has, fast, c.has, c.fast)
		}
	}
}
