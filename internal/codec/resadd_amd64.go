package codec

// hasBMI2 reports that the CPU has PDEP, so addWord can run on it;
// useAddWord that addResiduals takes it: everywhere PDEP is a single
// instruction. AMD cores before family 0x19 (Zen 3) execute PDEP in
// microcode, at a cost that grows with the mask's set bits, so there the
// scalar walk is the faster form.
var hasBMI2, useAddWord = probePDEP()

func probePDEP() (has, fast bool) {
	maxLeaf, ebx, ecx, edx := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	sig, _, _, _ := cpuid(1, 0)
	_, ext, _, _ := cpuid(7, 0)
	return pdepGate(ebx, ecx, edx, sig, ext)
}

// pdepGate decides from leaf 0's vendor words (EBX, ECX, EDX), leaf 1's
// signature and leaf 7's EBX: BMI2 is that EBX's bit 8, and the family is
// the signature's base family plus, when that reads 0xf, its extended one.
func pdepGate(ebx, ecx, edx, sig, ext uint32) (has, fast bool) {
	has = ext&(1<<8) != 0
	family := sig >> 8 & 0xf
	if family == 0xf {
		family += sig >> 20 & 0xff
	}
	amd := ebx == 0x68747541 && edx == 0x69746e65 && ecx == 0x444d4163 // "Auth" "enti" "cAMD"
	return has, has && !(amd && family < 0x19)
}

// cpuid runs CPUID on leaf and subleaf sub.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// addWord adds the residuals of one occupied word w onto the 64 pixels at
// p: where w's bit is set, +q or −q as the group's sign bits sb, deposited on
// w's set bits, say, clamped to [0, 255]. The bits set in esc — the word's
// escapes — are left alone.
//
//go:noescape
func addWord(p *uint8, w, sb, esc uint64, q int32)
