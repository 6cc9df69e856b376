package wire

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
)

// withFold runs the rest of the test with crc32c's fold on or off. A
// runner whose CPU cannot fold skips the fold-on case and says so.
func withFold(t testing.TB, on bool) {
	t.Helper()
	if on && !hasFold() {
		t.Skip("CPU lacks AVX-512F/VPCLMULQDQ (or the OS does not save ZMM state): no fold path to test")
	}
	saved := useFold
	useFold = on
	t.Cleanup(func() { useFold = saved })
}

func foldModes(t *testing.T, run func(t *testing.T)) {
	for _, on := range []bool{true, false} {
		t.Run(fmt.Sprintf("fold=%v", on), func(t *testing.T) {
			withFold(t, on)
			run(t)
		})
	}
}

// TestCRC32CMatchesStdlib checks crc32c against hash/crc32 on both paths:
// every length to 1100, random lengths to 300 KiB, every start offset
// modulo a cache line, random initial CRCs, and chained calls split at
// random points against one call.
func TestCRC32CMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 300<<10+64)
	rng.Read(buf)
	foldModes(t, func(t *testing.T) {
		check := func(off, n int, crc uint32) {
			t.Helper()
			p := buf[off : off+n]
			if got, want := crc32c(crc, p), crc32.Update(crc, castagnoli, p); got != want {
				t.Fatalf("crc32c(%08x, buf[%d:+%d]) = %08x, want %08x", crc, off, n, got, want)
			}
		}
		for n := 0; n <= 1100; n++ {
			check(n%64, n, rng.Uint32())
		}
		for off := 0; off < 64; off++ {
			for i := 0; i < 4; i++ {
				check(off, rng.Intn(300<<10), rng.Uint32())
			}
		}
		for i := 0; i < 200; i++ {
			off, n, crc := rng.Intn(64), rng.Intn(300<<10), rng.Uint32()
			p := buf[off : off+n]
			chained := crc
			for rest := p; len(rest) > 0; {
				k := rng.Intn(len(rest) + 1)
				chained = crc32c(chained, rest[:k])
				rest = rest[k:]
			}
			if want := crc32c(crc, p); chained != want {
				t.Fatalf("chained crc32c over buf[%d:+%d] from %08x = %08x, one call %08x", off, n, crc, chained, want)
			}
		}
	})
}

// TestFoldConstMatchesStdlibIEEE derives hash/crc32's own IEEE fold
// multipliers (crc32_amd64.s: r2r1 folds by 512 bits, r4r3 by 128) with
// foldConst, the generator of the Castagnoli ones.
func TestFoldConstMatchesStdlibIEEE(t *testing.T) {
	for _, c := range []struct {
		name   string
		d      int
		lo, hi uint64
	}{
		{"r2r1", 512, 0x154442bd4, 0x1c6e41596},
		{"r4r3", 128, 0x1751997d0, 0x0ccaa009e},
	} {
		lo, hi := foldConst(crc32.IEEE, c.d+32), foldConst(crc32.IEEE, c.d-32)
		if lo != c.lo || hi != c.hi {
			t.Errorf("%s: foldConst gives %#x, %#x; hash/crc32 has %#x, %#x", c.name, lo, hi, c.lo, c.hi)
		}
	}
}

func TestCRC32CZeroAlloc(t *testing.T) {
	p := make([]byte, 4<<10+100)
	foldModes(t, func(t *testing.T) {
		if n := testing.AllocsPerRun(100, func() { crc32c(1, p) }); n != 0 {
			t.Fatalf("crc32c allocates %v times per call, want 0", n)
		}
	})
}

// FuzzCRC32C compares the fold path, the hash/crc32 path and hash/crc32
// itself on arbitrary bytes, continued from an arbitrary CRC and split at
// an arbitrary point.
func FuzzCRC32C(f *testing.F) {
	seed := make([]byte, 1500)
	rand.New(rand.NewSource(2)).Read(seed)
	f.Add(seed[:0], uint16(0), uint32(0))
	f.Add(seed[:511], uint16(7), uint32(0xffffffff))
	f.Add(seed[:512], uint16(512), uint32(1))
	f.Add(seed, uint16(700), uint32(0xdeadbeef))
	folds := hasFold()
	f.Fuzz(func(t *testing.T, p []byte, split uint16, crc uint32) {
		want := crc32.Update(crc, castagnoli, p)
		k := int(split) % (len(p) + 1)
		saved := useFold
		defer func() { useFold = saved }()
		for _, on := range []bool{true, false} {
			if on && !folds {
				continue
			}
			useFold = on
			if got := crc32c(crc, p); got != want {
				t.Fatalf("fold=%v: crc32c(%08x, %d bytes) = %08x, want %08x", on, crc, len(p), got, want)
			}
			if got := crc32c(crc32c(crc, p[:k]), p[k:]); got != want {
				t.Fatalf("fold=%v: split at %d of %d gives %08x, want %08x", on, k, len(p), got, want)
			}
		}
	})
}

// BenchmarkCRC32C times the fold against hash/crc32 on hot buffers of the
// sizes frames carry, and on 2 MiB buffers walked through a 24 MiB region
// so that each arrives from L3 or memory, as a large packed message does.
func BenchmarkCRC32C(b *testing.B) {
	region := make([]byte, 24<<20)
	rand.New(rand.NewSource(3)).Read(region)
	sizes := []struct {
		name string
		n    int
		cold bool
	}{
		{"256B", 256, false},
		{"384B", 384, false},
		{"512B", 512, false},
		{"1KiB", 1 << 10, false},
		{"4KiB", 4 << 10, false},
		{"16KiB", 16 << 10, false},
		{"2MiB", 2 << 20, false},
		{"2MiB-cold", 2 << 20, true},
	}
	for _, path := range []string{"fold", "stdlib"} {
		for _, s := range sizes {
			b.Run(path+"/"+s.name, func(b *testing.B) {
				withFold(b, path == "fold")
				b.SetBytes(int64(s.n))
				off := 0
				for i := 0; i < b.N; i++ {
					crcSink = crc32c(crcSink, region[off:off+s.n])
					if s.cold {
						if off += s.n; off+s.n > len(region) {
							off = 0
						}
					}
				}
			})
		}
	}
}

var crcSink uint32
