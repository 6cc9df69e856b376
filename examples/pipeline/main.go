// Pipeline: the paper's Section 6 composition story, executable.
//
// A simulation produces a temperature field in kelvin on 6 ranks
// (block-decomposed). Downstream, an analysis component wants the field
// in °C on 4 ranks (cyclic), and a visualization component wants it
// normalized to [0,1] on 2 ranks (block). That is a pipeline of two
// filters (unit conversion, normalization) interleaved with two
// redistributions.
//
// The pipeline runs both ways:
//
//   - chained: materialize at every stage — one redistribution + one
//     filter pass per stage;
//   - fused: the "super-component" — all schedules composed into one
//     direct source→sink plan, all elementwise filters composed into one
//     pass at the sink.
//
// Outputs are identical; the fused plan moves the data once.
//
// Run:
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"
	"time"

	"mxn"
	"mxn/internal/pipeline"
)

const n = 1 << 16

func main() {
	src, err := mxn.NewTemplate([]int{n}, []mxn.AxisDist{mxn.BlockAxis(6)})
	if err != nil {
		log.Fatal(err)
	}
	analysis, err := mxn.NewTemplate([]int{n}, []mxn.AxisDist{mxn.CyclicAxis(4)})
	if err != nil {
		log.Fatal(err)
	}
	viz, err := mxn.NewTemplate([]int{n}, []mxn.AxisDist{mxn.BlockAxis(2)})
	if err != nil {
		log.Fatal(err)
	}

	kelvinToCelsius := func(x float64) float64 { return x - 273.15 }
	normalize := func(x float64) float64 { return x / 100 }

	p, err := pipeline.New(src,
		pipeline.Stage{Template: analysis, Filter: kelvinToCelsius},
		pipeline.Stage{Template: viz, Filter: normalize},
	)
	if err != nil {
		log.Fatal(err)
	}

	// Source data: a smooth temperature profile in kelvin.
	in := make([][]float64, src.NumProcs())
	for r := range in {
		in[r] = make([]float64, src.LocalCount(r))
	}
	for g := 0; g < n; g++ {
		r := src.OwnerOf([]int{g})
		in[r][src.LocalOffset(r, []int{g})] = 273.15 + 50*float64(g)/float64(n)
	}

	// Warm both paths (schedules built and cached), then time steady-state
	// runs so the comparison is movement-vs-movement.
	chained, err := p.RunChained(in)
	if err != nil {
		log.Fatal(err)
	}
	fusedSched, _, err := p.Fuse()
	if err != nil {
		log.Fatal(err)
	}
	fused, err := p.RunFused(in)
	if err != nil {
		log.Fatal(err)
	}
	const iters = 20
	chainedStart := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := p.RunChained(in); err != nil {
			log.Fatal(err)
		}
	}
	chainedTime := time.Since(chainedStart) / iters
	fusedStart := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := p.RunFused(in); err != nil {
			log.Fatal(err)
		}
	}
	fusedTime := time.Since(fusedStart) / iters

	// The two paths must agree exactly.
	diff := 0
	for r := range chained {
		for k := range chained[r] {
			if chained[r][k] != fused[r][k] {
				diff++
			}
		}
	}
	fmt.Printf("pipeline: %d elements through 2 redistributions + 2 filters (K → °C → normalized)\n", n)
	fmt.Printf("  chained execution:  %8s  (materializes 2 intermediate copies)\n", chainedTime.Round(time.Microsecond))
	fmt.Printf("  fused execution:    %8s  (%d messages, one data movement, one filter pass)\n",
		fusedTime.Round(time.Microsecond), fusedSched.NumMessages())
	fmt.Printf("  outputs identical:  %v (%d differing elements)\n", diff == 0, diff)
	if diff != 0 {
		log.Fatalf("pipeline: chained and fused outputs differ in %d elements", diff)
	}
	sample := fused[0][0]
	fmt.Printf("  spot check: sink[0] = %.4f (source 273.15 K → 0 °C → 0.0000)\n", sample)
}
