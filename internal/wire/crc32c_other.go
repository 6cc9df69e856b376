//go:build !amd64

package wire

// hasFold is false: the fold is amd64 assembly, and hash/crc32 checksums
// every frame elsewhere.
func hasFold() bool { return false }

func foldCastagnoli(crc uint32, p []byte, k *[4]uint64) uint32 {
	panic("wire: no CRC-32C fold on this architecture")
}
