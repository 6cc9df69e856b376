package wire

import "hash/crc32"

// The frame checksum is CRC-32C (Castagnoli). hash/crc32 computes it with
// three interleaved chains of the SSE4.2 crc32 instruction, so its speed is
// bound by that instruction's latency rather than by the bytes, and it is
// no faster where the cache could deliver more: on the L3-resident rows of
// a message lent from (or placed into) a multi-MiB array. Where the CPU
// has AVX-512 and VPCLMULQDQ, crc32c instead folds the buffer with
// carry-less multiplies (Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ", Intel 2009): four 512-bit accumulators take
// 256 bytes a step and carry no dependency from one step's loads to the
// next, so the fold runs at the speed the bytes arrive. Both paths compute
// the same checksum; the fold is chosen once, from CPUID, and nothing else
// selects it.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// useFold is whether crc32c folds: set once, from CPUID, and cleared only
// by tests that exercise the hash/crc32 path.
var useFold = hasFold()

// foldBlock is what one step of the fold consumes: four 64-byte
// accumulators. The fold takes the largest multiple of it and hash/crc32
// the rest; it is faster from a single block on (BenchmarkCRC32C,
// EXPERIMENTS.md B24), so a buffer goes whole to hash/crc32 only when it
// is shorter than one.
const foldBlock = 256

// foldK holds the fold's multipliers for the Castagnoli polynomial: the
// pair that folds a 128-bit lane forward by 2048 bits (the main loop) and
// the pair that folds it by 512 bits (combining the four accumulators).
var foldK = [4]uint64{
	foldConst(crc32.Castagnoli, 2048+32), foldConst(crc32.Castagnoli, 2048-32),
	foldConst(crc32.Castagnoli, 512+32), foldConst(crc32.Castagnoli, 512-32),
}

// crc32c returns crc32.Update(crc, castagnoli, p): the CRC-32C of p
// continued from crc, however it is computed.
//
// The fold (crc32c_amd64.s) is a leaf assembly function: it calls nothing
// and the runtime never preempts assembly asynchronously, so the ZMM
// registers it uses cannot be disturbed mid-fold, and it clears their upper
// halves (VZEROUPPER) before it returns.
func crc32c(crc uint32, p []byte) uint32 {
	if n := len(p) &^ (foldBlock - 1); useFold && n > 0 {
		crc, p = ^foldCastagnoli(^crc, p[:n], &foldK), p[n:]
	}
	return crc32.Update(crc, castagnoli, p)
}

// foldConst returns (x^n mod P)′≪1 for the bit-reflected polynomial poly:
// x^n mod P bit-reflected into 32 bits and shifted left by one, the form a
// reflected carry-less multiply takes. Folding a 128-bit lane forward by D
// bits multiplies its low quadword by foldConst(poly, D+32) and its high
// quadword by foldConst(poly, D-32).
func foldConst(poly uint32, n int) uint64 {
	v := uint32(1) << 31 // x^0, reflected
	for ; n > 0; n-- {
		// Multiply by x: reflected, a right shift; the x^32 that falls
		// off the end reduces to poly.
		if v&1 != 0 {
			v = v>>1 ^ poly
		} else {
			v >>= 1
		}
	}
	return uint64(v) << 1
}
