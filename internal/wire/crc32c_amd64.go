package wire

// foldCastagnoli folds p, a non-zero multiple of foldBlock bytes, into the
// raw (not inverted) CRC-32C register crc, with the multipliers k.
//
//go:noescape
func foldCastagnoli(crc uint32, p []byte, k *[4]uint64) uint32

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (lo uint32)

// hasFold reports whether the CPU has AVX-512F, VPCLMULQDQ and SSE4.2
// (the fold's crc32 reduction), and the OS saves the ZMM state: XCR0's
// SSE, AVX, opmask and both upper-ZMM bits.
func hasFold() bool {
	if top, _, _, _ := cpuid(0, 0); top < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const sse42, osxsave = 1 << 20, 1 << 27
	if c1&sse42 == 0 || c1&osxsave == 0 || xgetbv()&0xE6 != 0xE6 {
		return false
	}
	_, b7, c7, _ := cpuid(7, 0)
	const avx512f, vpclmulqdq = 1 << 16, 1 << 10
	return b7&avx512f != 0 && c7&vpclmulqdq != 0
}
