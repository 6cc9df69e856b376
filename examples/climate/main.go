// Climate coupling: the Model Coupling Toolkit scenario of the paper's
// Section 4.5, scaled to a laptop.
//
// A toy atmosphere on a fine 24×48 lat-lon grid runs on 4 ranks; a toy
// ocean on a coarse 12×24 grid runs on 2 ranks. Every coupling interval:
//
//  1. the atmosphere accumulates its fields over 4 internal steps (the
//     MCT Accumulator),
//  2. a Router transfers the time-averaged multi-field AttrVect to the
//     ocean ranks with the fine grid redistributed to the ocean's
//     decomposition,
//  3. the ocean interpolates fine→coarse as a parallel sparse
//     matrix–vector multiply (the MCT regrid kernel) and relaxes its SST
//     toward the result,
//  4. the SST is interpolated coarse→fine and routed back to the
//     atmosphere, where it is merged with a land field using fractional
//     weights (the MCT Merge),
//  5. both sides compute area-weighted global averages (MCT spatial
//     integrals) and the conservation drift of the interpolation is
//     reported; a drift beyond 1e-9 K exits 1 (it is about 1e-12).
//
// Run:
//
//	go run ./examples/climate
package main

import (
	"fmt"
	"log"
	"math"
	"sync"

	"mxn"
	"mxn/internal/mct"
	"mxn/internal/meshsim"
)

const (
	atmNLat, atmNLon = 24, 48
	ocnNLat, ocnNLon = 12, 24
	atmRanks         = 4
	ocnRanks         = 2
	stepsPerCouple   = 4
	couplings        = 8
)

func main() {
	atm := meshsim.NewAtmosphere(atmNLat, atmNLon)
	ocn := meshsim.NewOcean(ocnNLat, ocnNLon)
	finePts := atmNLat * atmNLon
	coarsePts := ocnNLat * ocnNLon

	// Decompositions: each model's grid over its own ranks, plus the fine
	// grid re-decomposed over the ocean ranks (the M×N hand-off point).
	atmMap := mct.BlockMap(finePts, atmRanks)
	ocnMap := mct.BlockMap(coarsePts, ocnRanks)
	fineOnOcn := mct.BlockMap(finePts, ocnRanks)

	// Routers are built once and reused every interval (the paper's
	// schedule-reuse story, at MCT's level).
	a2o, err := mct.NewRouter(atmMap, fineOnOcn)
	if err != nil {
		log.Fatal(err)
	}
	o2a, err := mct.NewRouter(fineOnOcn, atmMap)
	if err != nil {
		log.Fatal(err)
	}

	// Interpolation matrices, distributed by destination row.
	f2c := meshsim.RegridMatrix(atmNLat, atmNLon, ocnNLat, ocnNLon)
	c2f := meshsim.RegridMatrix(ocnNLat, ocnNLon, atmNLat, atmNLon)

	// The model registry: who lives where (no intercommunicators needed).
	reg := mct.NewRegistry()
	if err := reg.Register("atm", []int{0, 1, 2, 3}); err != nil {
		log.Fatal(err)
	}
	if err := reg.Register("ocn", []int{4, 5}); err != nil {
		log.Fatal(err)
	}
	atmBase, _ := reg.WorldRank("atm", 0)
	ocnBase, _ := reg.WorldRank("ocn", 0)

	fmt.Printf("%-8s %-14s %-14s %-14s %-12s\n", "interval", "atm Tavg (K)", "ocn SST (K)", "merged Tavg", "cons. drift")

	var mu sync.Mutex
	report := make([]string, couplings)

	mxn.Run(atmRanks+ocnRanks, func(world *mxn.Comm) {
		// Sub-communicator creation is collective over the parent, so
		// every rank takes part in both; each keeps only its own.
		atmComm := world.Sub([]int{0, 1, 2, 3})
		ocnComm := world.Sub([]int{atmRanks, atmRanks + 1})
		model, _ := reg.ModelAt(world.Rank())
		switch model {
		case "atm":
			runAtmosphere(world, atmComm, reg, atm, atmMap, a2o, o2a, ocnBase, report, &mu)
		case "ocn":
			runOcean(world, ocnComm, ocn, ocnMap, fineOnOcn, a2o, o2a, f2c, c2f, atmBase)
		}
	})
	for _, line := range report {
		fmt.Println(line)
	}
}

// runAtmosphere is the atmosphere model's per-rank body.
func runAtmosphere(world, atmComm *mxn.Comm, reg *mct.Registry, atm *meshsim.Atmosphere,
	atmMap *mct.GlobalSegMap, a2o, o2a *mct.Router, ocnBase int,
	report []string, mu *sync.Mutex) {

	rank, _ := reg.LocalRank("atm", world.Rank())
	cohortRanks, _ := reg.RanksOf("atm")
	_ = cohortRanks
	lsize := atmMap.LocalSize(rank)
	state := mct.MustAttrVect([]string{"t", "q"}, lsize)
	acc, err := mct.NewAccumulator([]string{"t", "q"}, lsize)
	if err != nil {
		log.Fatal(err)
	}
	localGrid, err := atm.Grid.LocalGrid(atmMap, rank)
	if err != nil {
		log.Fatal(err)
	}
	// Synthetic land temperature and land/ocean fractions for the merge.
	land := mct.MustAttrVect([]string{"t"}, lsize)
	fracLand := make([]float64, lsize)
	fracOcn := make([]float64, lsize)
	for li, gi := range atmMap.LocalPoints(rank) {
		lat := atm.Grid.Coord("lat")[gi]
		land.Field("t")[li] = 285 - 0.3*math.Abs(lat)
		fracLand[li] = 0.3 + 0.2*math.Sin(lat*math.Pi/90)
		fracOcn[li] = 1 - fracLand[li]
	}

	step := 0
	for interval := 0; interval < couplings; interval++ {
		acc.Reset()
		for s := 0; s < stepsPerCouple; s++ {
			atm.Eval(atmMap, rank, step, state)
			if err := acc.Accumulate(state); err != nil {
				log.Fatal(err)
			}
			step++
		}
		avg, err := acc.Average()
		if err != nil {
			log.Fatal(err)
		}
		// Ship the time-averaged fields to the ocean side.
		if err := a2o.Send(world, ocnBase, rank, avg, 0); err != nil {
			log.Fatal(err)
		}
		// Receive the ocean's SST interpolated back onto the fine grid.
		sstFine := mct.MustAttrVect([]string{"t"}, lsize)
		if err := o2a.Recv(world, ocnBase, rank, sstFine, 1); err != nil {
			log.Fatal(err)
		}
		// Merge land and ocean surface temperatures with fractions.
		merged := mct.MustAttrVect([]string{"t"}, lsize)
		if err := mct.Merge(merged, []*mct.AttrVect{land, sstFine},
			[][]float64{fracLand, fracOcn}, 1e-9); err != nil {
			log.Fatal(err)
		}
		// Diagnostics: area-weighted global means over the atm cohort.
		tAvg, err := mct.SpatialAverage(atmComm, avg, "t", localGrid)
		if err != nil {
			log.Fatal(err)
		}
		sstAvgOnFine, _ := mct.SpatialAverage(atmComm, sstFine, "t", localGrid)
		mergedAvg, _ := mct.SpatialAverage(atmComm, merged, "t", localGrid)
		// The ocean reports its own average for the conservation check.
		payload, _ := world.Recv(ocnBase, 7)
		ocnSST := payload.(float64)
		drift := math.Abs(sstAvgOnFine - ocnSST)
		if rank == 0 {
			if drift > 1e-9 {
				log.Fatalf("climate: interval %d drifts %.2e K, more than 1e-9 K", interval, drift)
			}
			mu.Lock()
			report[interval] = fmt.Sprintf("%-8d %-14.4f %-14.4f %-14.4f %-12.2e",
				interval, tAvg, ocnSST, mergedAvg, drift)
			mu.Unlock()
		}
	}
}

// runOcean is the ocean model's per-rank body.
func runOcean(world, ocnComm *mxn.Comm, ocn *meshsim.Ocean,
	ocnMap, fineOnOcn *mct.GlobalSegMap, a2o, o2a *mct.Router,
	f2c, c2f *mct.SparseMatrix, atmBase int) {

	rank := world.Rank() - atmRanks
	lsize := ocnMap.LocalSize(rank)
	sst := make([]float64, lsize)
	ocn.InitSST(ocnMap, rank, sst)
	localGrid, err := ocn.Grid.LocalGrid(ocnMap, rank)
	if err != nil {
		log.Fatal(err)
	}

	// Bind the interpolation operators once; halo plans are reused.
	mvF2C, err := mct.NewMatVec(ocnComm, meshsim.LocalMatrix(f2c, ocnMap, rank), fineOnOcn, ocnMap, 20)
	if err != nil {
		log.Fatal(err)
	}
	mvC2F, err := mct.NewMatVec(ocnComm, meshsim.LocalMatrix(c2f, fineOnOcn, rank), ocnMap, fineOnOcn, 30)
	if err != nil {
		log.Fatal(err)
	}

	for interval := 0; interval < couplings; interval++ {
		// Receive the atmosphere's averaged fields on the fine grid.
		fine := mct.MustAttrVect([]string{"t", "q"}, fineOnOcn.LocalSize(rank))
		if err := a2o.Recv(world, 0, rank, fine, 0); err != nil {
			log.Fatal(err)
		}
		// Interpolate fine→coarse (parallel sparse matvec, both fields).
		coarse := mct.MustAttrVect([]string{"t", "q"}, lsize)
		fineT := mct.MustAttrVect([]string{"t", "q"}, fineOnOcn.LocalSize(rank))
		fineT.Copy(fine)
		if err := mvF2C.Apply(ocnComm, fineT, coarse, 40); err != nil {
			log.Fatal(err)
		}
		// Ocean physics: relax SST toward the atmospheric temperature.
		ocn.Relax(sst, coarse.Field("t"))
		// Interpolate SST coarse→fine and route it back.
		sstAV := mct.MustAttrVect([]string{"t"}, lsize)
		copy(sstAV.Field("t"), sst)
		sstFine := mct.MustAttrVect([]string{"t"}, fineOnOcn.LocalSize(rank))
		if err := mvC2F.Apply(ocnComm, sstAV, sstFine, 50); err != nil {
			log.Fatal(err)
		}
		if err := o2a.Send(world, 0, rank, sstFine, 1); err != nil {
			log.Fatal(err)
		}
		// Report the ocean-side SST average for the conservation check.
		sstAvg, err := mct.SpatialAverage(ocnComm, sstAV, "t", localGrid)
		if err != nil {
			log.Fatal(err)
		}
		if rank == 0 {
			for a := 0; a < atmRanks; a++ {
				world.Send(a, 7, sstAvg)
			}
		}
	}
}
