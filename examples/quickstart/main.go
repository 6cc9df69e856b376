// Quickstart: the paper's Figure 1 scenario end to end.
//
// One parallel program holds a 3-D field decomposed over M=8 processes
// (a 2×2×2 block grid); a second program wants the same field on N=27
// processes (3×3×3). The library computes the communication schedule from
// the two distributed-array descriptors and moves every element with
// independent pairwise messages — no barriers, no central data manager.
//
// Run:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sync"

	"mxn"
)

func main() {
	const nx, ny, nz = 60, 60, 60
	const m, n = 8, 27

	// Describe both sides' decompositions with DAD templates.
	src, err := mxn.NewTemplate([]int{nx, ny, nz},
		[]mxn.AxisDist{mxn.BlockAxis(2), mxn.BlockAxis(2), mxn.BlockAxis(2)})
	if err != nil {
		log.Fatal(err)
	}
	dst, err := mxn.NewTemplate([]int{nx, ny, nz},
		[]mxn.AxisDist{mxn.BlockAxis(3), mxn.BlockAxis(3), mxn.BlockAxis(3)})
	if err != nil {
		log.Fatal(err)
	}

	// The communication schedule is computed once from the two templates
	// and is reusable for every array that conforms to them.
	sched, err := mxn.BuildSchedule(src, dst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedule: %d pairwise messages move %d elements (M=%d → N=%d)\n",
		sched.NumMessages(), sched.TotalElems(), m, n)

	// Stand up both cohorts in one world: ranks [0,8) are the source
	// program, ranks [8,35) the destination.
	dstLocals := make([][]float64, n)
	var mu sync.Mutex
	mxn.Run(m+n, func(c *mxn.Comm) {
		lay := mxn.Layout{SrcBase: 0, DstBase: m}
		var srcLocal, dstLocal []float64
		if c.Rank() < m {
			// Source rank: fill the local portion with a global
			// fingerprint value so the transfer is verifiable.
			srcLocal = make([]float64, src.LocalCount(c.Rank()))
			fill(src, c.Rank(), srcLocal)
		} else {
			dstLocal = make([]float64, dst.LocalCount(c.Rank()-m))
		}
		// Each rank builds its transfer handle once per coupling and runs
		// it every step; this program runs one step.
		xt, err := mxn.NewTransfer[float64](c, sched, lay, 0, mxn.TransferOpts{})
		if err == nil {
			_, err = xt.Run(srcLocal, dstLocal)
		}
		if err != nil {
			log.Fatalf("rank %d: %v", c.Rank(), err)
		}
		if dstLocal != nil {
			mu.Lock()
			dstLocals[c.Rank()-m] = dstLocal
			mu.Unlock()
		}
	})

	// Verify every element landed at its owner with its value intact.
	bad := 0
	forEach(nx, ny, nz, func(i, j, k int) {
		idx := []int{i, j, k}
		r := dst.OwnerOf(idx)
		if dstLocals[r][dst.LocalOffset(r, idx)] != value(i, j, k) {
			bad++
		}
	})
	if bad != 0 {
		log.Fatalf("%d elements corrupted", bad)
	}
	fmt.Printf("verified: all %d elements redistributed correctly\n", nx*ny*nz)
}

// value is the global fingerprint of an index.
func value(i, j, k int) float64 { return float64(i)*1e6 + float64(j)*1e3 + float64(k) }

// fill writes the fingerprint of every owned index into the local buffer.
func fill(t *mxn.Template, rank int, local []float64) {
	dims := t.Dims()
	forEach(dims[0], dims[1], dims[2], func(i, j, k int) {
		idx := []int{i, j, k}
		if t.OwnerOf(idx) == rank {
			local[t.LocalOffset(rank, idx)] = value(i, j, k)
		}
	})
}

func forEach(nx, ny, nz int, fn func(i, j, k int)) {
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				fn(i, j, k)
			}
		}
	}
}
