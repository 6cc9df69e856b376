package mxn

// Benchmark suite: one testing.B benchmark (or family) per figure and
// per benchmark table of EXPERIMENTS.md. Tables B1–B11 live only here:
// each axis a table varies is a sub-benchmark, and its non-time
// quantities (messages, runs, descriptor bytes) are custom metrics.
// cmd/mxnbench runs the figure experiments. Every table:
//
//	go test -run '^$' -bench . -benchmem
//
// One table, e.g. B1:
//
//	go test -run '^$' -bench ScheduleBuild -benchmem

import (
	"fmt"
	"sync"
	"testing"

	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/dapkg"
	"mxn/internal/intercomm"
	"mxn/internal/mct"
	"mxn/internal/meshsim"
	"mxn/internal/pipeline"
	"mxn/internal/prmi"
	"mxn/internal/redist"
	"mxn/internal/schedule"
	"mxn/internal/sidl"
)

func mustTemplate(b *testing.B, dims []int, axes ...dad.AxisDist) *dad.Template {
	b.Helper()
	t, err := dad.NewTemplate(dims, axes)
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// BenchmarkFigure1Redistribution measures the paper's headline scenario:
// one 60³ transfer from M=8 to N=27 with live cohorts (schedule cached).
func BenchmarkFigure1Redistribution(b *testing.B) {
	src := mustTemplate(b, []int{60, 60, 60}, dad.BlockAxis(2), dad.BlockAxis(2), dad.BlockAxis(2))
	dst := mustTemplate(b, []int{60, 60, 60}, dad.BlockAxis(3), dad.BlockAxis(3), dad.BlockAxis(3))
	s, err := schedule.Build(src, dst)
	if err != nil {
		b.Fatal(err)
	}
	srcLocals := make([][]float64, 8)
	for r := range srcLocals {
		srcLocals[r] = make([]float64, src.LocalCount(r))
	}
	dstLocals := make([][]float64, 27)
	for r := range dstLocals {
		dstLocals[r] = make([]float64, dst.LocalCount(r))
	}
	b.SetBytes(int64(s.TotalElems() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		world := comm.NewWorld(8 + 27)
		for rank, c := range world.Comms() {
			wg.Add(1)
			go func(rank int, c *comm.Comm) {
				defer wg.Done()
				lay := redist.Layout{SrcBase: 0, DstBase: 8}
				var sl, dl []float64
				if rank < 8 {
					sl = srcLocals[rank]
				} else {
					dl = dstLocals[rank-8]
				}
				if _, err := runOnce(c, s, lay, sl, dl, 0, TransferOpts{}); err != nil {
					panic(err)
				}
			}(rank, c)
		}
		wg.Wait()
	}
}

// BenchmarkFigure2DirectCall is the direct-connected framework's port
// invocation: a library call through an interface.
func BenchmarkFigure2DirectCall(b *testing.B) {
	type port interface{ F(float64) float64 }
	var p port = &benchPort{}
	b.ResetTimer()
	acc := 0.0
	for i := 0; i < b.N; i++ {
		acc += p.F(float64(i))
	}
	_ = acc
}

type benchPort struct{ state float64 }

func (p *benchPort) F(x float64) float64 {
	p.state += x
	return x * 2
}

// BenchmarkFigure2PRMI is the distributed framework's port invocation:
// the same call as a parallel remote method invocation (in-process link).
func BenchmarkFigure2PRMI(b *testing.B) {
	pkg, err := sidl.Parse(`package p; interface I { independent double f(in double x); }`)
	if err != nil {
		b.Fatal(err)
	}
	iface, _ := pkg.Interface("I")
	w := comm.NewWorld(2)
	cs := w.Comms()
	done := make(chan error, 1)
	go func() {
		ep := prmi.NewEndpoint(iface, prmi.NewCommLink(cs[1], 0, 0), 0, 1, 1)
		ep.Handle("f", func(in *prmi.Incoming, out *prmi.Outgoing) error {
			out.Return = in.Simple["x"].(float64) * 2
			return nil
		})
		done <- ep.Serve()
	}()
	port := prmi.NewCallerPort(iface, prmi.NewCommLink(cs[0], 1, 0), 0, 1, prmi.Eager)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := port.CallIndependent(0, "f", prmi.Simple("x", 1.0)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	port.Close()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFigure3PairedComponents measures one persistent-channel frame
// between paired M×N components over the in-memory bridge.
func BenchmarkFigure3PairedComponents(b *testing.B) {
	benchPersistentFrame(b, 64)
}

// benchPersistentFrame times one side×side frame through a persistent
// SyncEachFrame channel from 2 row-block ranks to 2 column-block ranks.
func benchPersistentFrame(b *testing.B, side int) {
	const m, n = 2, 2
	srcT := mustTemplate(b, []int{side, side}, dad.BlockAxis(m), dad.CollapsedAxis())
	dstT := mustTemplate(b, []int{side, side}, dad.CollapsedAxis(), dad.BlockAxis(n))
	srcD, _ := dad.NewDescriptor("f", dad.Float64, dad.ReadOnly, srcT)
	dstD, _ := dad.NewDescriptor("f", dad.Float64, dad.WriteOnly, dstT)
	ba, bb := core.BridgePair()
	hubA := core.NewHub("A", m, ba)
	hubB := core.NewHub("B", n, bb)
	hubA.Register(srcD)
	hubB.Register(dstD)
	srcConn, dstConn, err := core.Connect("bench", hubA, "f", hubB, "f",
		core.ConnOpts{Persistent: true, Sync: core.SyncEachFrame})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(side * side * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for r := 0; r < m; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				local := make([]float64, srcT.LocalCount(r))
				srcConn.DataReady(r, local)
			}(r)
		}
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				buf := make([]float64, dstT.LocalCount(r))
				dstConn.DataReady(r, buf)
			}(r)
		}
		wg.Wait()
	}
}

// BenchmarkFigure5BarrierDelayed measures the cost of the DCA delivery
// rule: a collective invocation including its participant barrier.
func BenchmarkFigure5BarrierDelayed(b *testing.B) {
	benchPRMI(b, 2, 2, "g", prmi.BarrierDelayed, false)
}

// BenchmarkFigure5Eager is the same invocation with eager delivery — the
// barrier's price is the difference (safety is the deadlock avoided).
func BenchmarkFigure5Eager(b *testing.B) {
	benchPRMI(b, 2, 2, "g", prmi.Eager, false)
}

// BenchmarkPRMICall covers table B5: independent against collective
// calls, M=N against M≠N cohorts (ghost invocations and returns), a
// one-way collective, and the simple-argument consistency check the
// paper lets frameworks skip.
func BenchmarkPRMICall(b *testing.B) {
	cases := []struct {
		name   string
		m, n   int
		method string
		check  bool
	}{
		{"Independent/M1xN1", 1, 1, "f", false},
		{"Collective/M2xN2", 2, 2, "g", false},
		{"Collective/M4xN4", 4, 4, "g", false},
		{"Collective/M8xN8", 8, 8, "g", false},
		{"Collective/M8xN2", 8, 2, "g", false},
		{"Collective/M2xN8", 2, 8, "g", false},
		{"Oneway/M4xN4", 4, 4, "h", false},
		{"CheckSimpleArgs/M4xN4", 4, 4, "g", true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			benchPRMI(b, c.m, c.n, c.method, prmi.BarrierDelayed, c.check)
		})
	}
}

// benchPRMI times b.N calls of method ("f" independent, "g" collective,
// "h" collective one-way) made by each of m caller ranks on n callee
// ranks over in-process links; one op is one call on every caller.
func benchPRMI(b *testing.B, m, n int, method string, mode prmi.DeliveryMode, checkSimple bool) {
	pkg, err := sidl.Parse(`package p; interface I {
		independent double f(in double x);
		collective double g(in double x);
		collective oneway void h(in double x);
	}`)
	if err != nil {
		b.Fatal(err)
	}
	iface, _ := pkg.Interface("I")
	w := comm.NewWorld(m + n)
	all := w.Comms()
	ranks := make([]int, m)
	for i := range ranks {
		ranks[i] = i
	}
	cohort := w.Group(ranks)
	var serveWG sync.WaitGroup
	for j := 0; j < n; j++ {
		serveWG.Add(1)
		go func(j int) {
			defer serveWG.Done()
			ep := prmi.NewEndpoint(iface, prmi.NewCommLink(all[m+j], 0, 0), j, n, m)
			ep.CheckSimpleArgs = checkSimple
			ret := func(in *prmi.Incoming, out *prmi.Outgoing) error {
				out.Return = 1.0
				return nil
			}
			ep.Handle("f", ret)
			ep.Handle("g", ret)
			ep.Handle("h", func(in *prmi.Incoming, out *prmi.Outgoing) error { return nil })
			if err := ep.Serve(); err != nil {
				b.Error(err)
			}
		}(j)
	}
	ports := make([]*prmi.CallerPort, m)
	for i := range ports {
		ports[i] = prmi.NewCallerPort(iface, prmi.NewCommLink(all[i], m, 0), i, n, mode)
	}
	callAll := func(method string, calls int) {
		var wg sync.WaitGroup
		for i, p := range ports {
			wg.Add(1)
			go func(i int, p *prmi.CallerPort) {
				defer wg.Done()
				for k := 0; k < calls; k++ {
					var err error
					if method == "f" {
						_, err = p.CallIndependent(i%n, "f", prmi.Simple("x", 1.0))
					} else {
						_, err = p.CallCollective(method, prmi.FullParticipation(cohort[i]), prmi.Simple("x", 1.0))
					}
					if err != nil {
						panic(err)
					}
				}
			}(i, p)
		}
		wg.Wait()
	}
	b.ResetTimer()
	callAll(method, b.N)
	b.StopTimer()
	if method == "h" {
		// One-way calls return before their handlers run; a blocking
		// call orders Close after them.
		callAll("g", 1)
	}
	for _, p := range ports {
		p.Close()
	}
	serveWG.Wait()
}

// BenchmarkScheduleBuild covers table B1: schedule construction cost as
// M and N grow, for aligned (block→block) and fragmented (block→cyclic,
// block-cyclic→block-cyclic) pairs. The runs metric counts schedule.Run
// vectors, so a regular pair's progression of blocks is one run.
func BenchmarkScheduleBuild(b *testing.B) {
	const n = 1 << 14
	for _, mn := range [][2]int{{2, 2}, {4, 8}, {8, 16}, {16, 32}, {32, 64}} {
		m, nn := mn[0], mn[1]
		pairs := []struct {
			name     string
			src, dst dad.AxisDist
		}{
			{"BlockToBlock", dad.BlockAxis(m), dad.BlockAxis(nn)},
			{"BlockToCyclic", dad.BlockAxis(m), dad.CyclicAxis(nn)},
			{"BlockCyclicToBlockCyclic", dad.BlockCyclicAxis(m, 32), dad.BlockCyclicAxis(nn, 64)},
		}
		for _, p := range pairs {
			b.Run(fmt.Sprintf("%s/M%dxN%d", p.name, m, nn), func(b *testing.B) {
				src := mustTemplate(b, []int{n}, p.src)
				dst := mustTemplate(b, []int{n}, p.dst)
				var s *schedule.Schedule
				var err error
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if s, err = schedule.Build(src, dst); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runs := 0
				for _, pr := range s.Pairs {
					runs += len(pr.Runs)
				}
				b.ReportMetric(float64(s.NumMessages()), "msgs")
				b.ReportMetric(float64(runs), "runs")
			})
		}
	}
}

// BenchmarkScheduleReuse covers table B2: a cold first transfer (empty
// cache: build, then move) against the steady-state cached transfer.
func BenchmarkScheduleReuse(b *testing.B) {
	const n = 1 << 16
	src := mustTemplate(b, []int{n}, dad.BlockAxis(8))
	dst := mustTemplate(b, []int{n}, dad.BlockCyclicAxis(8, 64))
	srcLocals := make([][]float64, 8)
	dstLocals := make([][]float64, 8)
	for r := 0; r < 8; r++ {
		srcLocals[r] = make([]float64, src.LocalCount(r))
		dstLocals[r] = make([]float64, dst.LocalCount(r))
	}
	for _, cold := range []bool{true, false} {
		name := "Cached"
		if cold {
			name = "Cold"
		}
		b.Run(name, func(b *testing.B) {
			cache := schedule.NewCache()
			if _, err := cache.Get(src, dst); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					cache = schedule.NewCache()
				}
				s, err := cache.Get(src, dst)
				if err != nil {
					b.Fatal(err)
				}
				redist.ExecuteLocalT(s, srcLocals, dstLocals)
			}
		})
	}
}

// BenchmarkDistributionKinds covers table B3: schedule build and transfer
// cost by source distribution kind, from the compact block family to the
// structureless implicit and explicit descriptors.
func BenchmarkDistributionKinds(b *testing.B) {
	const n = 1 << 14
	const np = 8
	owners := make([]int, n)
	for i := range owners {
		owners[i] = (i / 37) % np
	}
	// Uneven generalized-block sizes; the last rank takes the rest.
	genSizes := make([]int, np)
	genSizes[np-1] = n
	for i := 0; i < np-1; i++ {
		genSizes[i] = n / np / 2 * (1 + i%3)
		genSizes[np-1] -= genSizes[i]
	}
	patches := make([]dad.Patch, np)
	for r := range patches {
		patches[r] = dad.NewPatch([]int{r * n / np}, []int{(r + 1) * n / np}, r)
	}
	explicit, err := dad.NewExplicitTemplate([]int{n}, np, patches)
	if err != nil {
		b.Fatal(err)
	}
	kinds := []struct {
		name string
		tpl  *dad.Template
	}{
		{"Block", mustTemplate(b, []int{n}, dad.BlockAxis(np))},
		{"Cyclic", mustTemplate(b, []int{n}, dad.CyclicAxis(np))},
		{"BlockCyclic64", mustTemplate(b, []int{n}, dad.BlockCyclicAxis(np, 64))},
		{"GenBlock", mustTemplate(b, []int{n}, dad.GenBlockAxis(genSizes))},
		{"Implicit", mustTemplate(b, []int{n}, dad.ImplicitAxis(np, owners))},
		{"Explicit", explicit},
	}
	dst := mustTemplate(b, []int{n}, dad.BlockAxis(np))
	for _, k := range kinds {
		b.Run(k.name+"/Build", func(b *testing.B) {
			var s *schedule.Schedule
			var err error
			for i := 0; i < b.N; i++ {
				if s, err = schedule.Build(k.tpl, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(intercomm.DescriptorFootprint(k.tpl)), "desc-B")
			b.ReportMetric(float64(s.NumMessages()), "msgs")
		})
		b.Run(k.name+"/Transfer", func(b *testing.B) {
			s, err := schedule.Build(k.tpl, dst)
			if err != nil {
				b.Fatal(err)
			}
			srcLocals := make([][]float64, np)
			dstLocals := make([][]float64, np)
			for r := 0; r < np; r++ {
				srcLocals[r] = make([]float64, k.tpl.LocalCount(r))
				dstLocals[r] = make([]float64, dst.LocalCount(r))
			}
			b.SetBytes(int64(n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				redist.ExecuteLocalT(s, srcLocals, dstLocals)
			}
		})
	}
}

// BenchmarkLinearizationVsDAD covers table B4: a transfer planned from
// two row-major linearizations (schedule.FromLinear) against one planned
// from the two templates (schedule.Build), steady state and first (the
// plan built in the op), and then the plan alone on two blocked 2-D
// shapes, whose rows are long runs of positions.
func BenchmarkLinearizationVsDAD(b *testing.B) {
	const n = 1 << 13
	const m, nn = 2, 3
	src := mustTemplate(b, []int{n}, dad.BlockAxis(m))
	dst := mustTemplate(b, []int{n}, dad.CyclicAxis(nn))
	planners := []struct {
		name string
		plan func() (*schedule.Schedule, error)
	}{
		{"DADSchedule", func() (*schedule.Schedule, error) { return schedule.Build(src, dst) }},
		{"LinearSchedule", func() (*schedule.Schedule, error) {
			return LinearSchedule(RowMajorLinearization(src), RowMajorLinearization(dst))
		}},
	}
	for _, pl := range planners {
		for _, first := range []bool{false, true} {
			name := pl.name
			if first {
				name += "First"
			}
			b.Run(name, func(b *testing.B) {
				s, err := pl.plan()
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(n * 8))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if first {
						if s, err = pl.plan(); err != nil {
							b.Fatal(err)
						}
					}
					runParallel(b, m+nn, func(rank int, c *comm.Comm) error {
						lay := redist.Layout{SrcBase: 0, DstBase: m}
						var sl, dl []float64
						if rank < m {
							sl = make([]float64, src.LocalCount(rank))
						} else {
							dl = make([]float64, dst.LocalCount(rank-m))
						}
						_, err := runOnce(c, s, lay, sl, dl, 0, TransferOpts{})
						return err
					})
				}
			})
		}
	}
	shapes := []struct {
		name     string
		src, dst *dad.Template
	}{
		{"512sq-block2xcollapsed-to-collapsedxblock2",
			mustTemplate(b, []int{512, 512}, dad.BlockAxis(2), dad.CollapsedAxis()),
			mustTemplate(b, []int{512, 512}, dad.CollapsedAxis(), dad.BlockAxis(2))},
		{"1024sq-block2xblock2-to-block4xcollapsed",
			mustTemplate(b, []int{1024, 1024}, dad.BlockAxis(2), dad.BlockAxis(2)),
			mustTemplate(b, []int{1024, 1024}, dad.BlockAxis(4), dad.CollapsedAxis())},
	}
	for _, sh := range shapes {
		b.Run("Plan/"+sh.name+"/FromLinear", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := LinearSchedule(RowMajorLinearization(sh.src), RowMajorLinearization(sh.dst)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("Plan/"+sh.name+"/Build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := schedule.Build(sh.src, sh.dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// runParallel spawns one goroutine per rank of a fresh world.
func runParallel(b *testing.B, n int, body func(rank int, c *comm.Comm) error) {
	b.Helper()
	var wg sync.WaitGroup
	world := comm.NewWorld(n)
	for rank, c := range world.Comms() {
		wg.Add(1)
		go func(rank int, c *comm.Comm) {
			defer wg.Done()
			if err := body(rank, c); err != nil {
				panic(err)
			}
		}(rank, c)
	}
	wg.Wait()
}

// BenchmarkPRMIParallelArgument covers the parallel-argument row of table
// B5: a collective call moving a redistributed array each way.
func BenchmarkPRMIParallelArgument(b *testing.B) {
	pkg, _ := sidl.Parse(`package p; interface I { collective void f(inout parallel array<double> x); }`)
	iface, _ := pkg.Interface("I")
	const m, n, d = 2, 2, 1 << 12
	callerTpl := mustTemplate(b, []int{d}, dad.CyclicAxis(m))
	calleeTpl := mustTemplate(b, []int{d}, dad.BlockAxis(n))
	w := comm.NewWorld(m + n)
	all := w.Comms()
	cohort := w.Group([]int{0, 1})
	var serveWG sync.WaitGroup
	for j := 0; j < n; j++ {
		serveWG.Add(1)
		go func(j int) {
			defer serveWG.Done()
			ep := prmi.NewEndpoint(iface, prmi.NewCommLink(all[m+j], 0, 0), j, n, m)
			ep.RegisterArgLayout("f", "x", calleeTpl)
			ep.Handle("f", func(in *prmi.Incoming, out *prmi.Outgoing) error { return nil })
			ep.Serve()
		}(j)
	}
	ports := make([]*prmi.CallerPort, m)
	locals := make([][]float64, m)
	for i := 0; i < m; i++ {
		ports[i] = prmi.NewCallerPort(iface, prmi.NewCommLink(all[i], m, 0), i, n, prmi.BarrierDelayed)
		ports[i].SetCalleeLayout("f", "x", calleeTpl)
		locals[i] = make([]float64, callerTpl.LocalCount(i))
	}
	b.SetBytes(int64(d * 8 * 2)) // there and back
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		var wg sync.WaitGroup
		for i := 0; i < m; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := ports[i].CallCollective("f", prmi.FullParticipation(cohort[i]),
					prmi.Parallel("x", callerTpl, locals[i])); err != nil {
					panic(err)
				}
			}(i)
		}
		wg.Wait()
	}
	b.StopTimer()
	for _, p := range ports {
		p.Close()
	}
	serveWG.Wait()
}

// BenchmarkConverterScaling covers table B6: converting between the first
// and last of 2–6 DA package representations through the DAD hub against
// a fused pairwise converter, with each scheme's converter count.
func BenchmarkConverterScaling(b *testing.B) {
	tpl := mustTemplate(b, []int{256, 256}, dad.BlockAxis(1), dad.CollapsedAxis())
	for _, np := range []int{2, 3, 4, 6} {
		b.Run(fmt.Sprintf("Packages%d", np), func(b *testing.B) {
			pkgs := dapkg.Builtin(np)
			src, dst := pkgs[0], pkgs[np-1]
			cs, err := dapkg.NewConverter(src, tpl, 0)
			if err != nil {
				b.Fatal(err)
			}
			cd, err := dapkg.NewConverter(dst, tpl, 0)
			if err != nil {
				b.Fatal(err)
			}
			direct, err := dapkg.NewDirectConverter(src, dst, tpl, 0)
			if err != nil {
				b.Fatal(err)
			}
			in := make([]float64, cs.Len())
			out := make([]float64, cs.Len())
			scratch := make([]float64, cs.Len())
			b.Run("ViaDADHub", func(b *testing.B) {
				b.SetBytes(int64(cs.Len() * 8))
				for i := 0; i < b.N; i++ {
					dapkg.ViaHub(cs, cd, in, scratch, out)
				}
				b.ReportMetric(float64(dapkg.HubConverterCount(np)), "converters")
			})
			b.Run("DirectPairwise", func(b *testing.B) {
				b.SetBytes(int64(cs.Len() * 8))
				for i := 0; i < b.N; i++ {
					direct.Convert(in, out)
				}
				b.ReportMetric(float64(dapkg.PairwiseConverterCount(np)), "converters")
			})
		})
	}
}

// BenchmarkMCTInterp covers table B7: one apply of the distributed
// atmosphere(144×96) → ocean(96×64) regrid matvec on 8 ranks, for one
// field and for four fields sharing each halo exchange.
func BenchmarkMCTInterp(b *testing.B) {
	const np = 8
	const nlatS, nlonS, nlatD, nlonD = 144, 96, 96, 64
	global := meshsim.RegridMatrix(nlatS, nlonS, nlatD, nlonD)
	xMap := mct.BlockMap(nlatS*nlonS, np)
	yMap := mct.BlockMap(nlatD*nlonD, np)
	for _, fields := range []int{1, 4} {
		b.Run(fmt.Sprintf("Fields%d", fields), func(b *testing.B) {
			attrs := make([]string, fields)
			for i := range attrs {
				attrs[i] = fmt.Sprintf("f%d", i)
			}
			runParallel(b, np, func(rank int, c *comm.Comm) error {
				mv, err := mct.NewMatVec(c, meshsim.LocalMatrix(global, yMap, rank), xMap, yMap, 0)
				if err != nil {
					return err
				}
				x := mct.MustAttrVect(attrs, xMap.LocalSize(rank))
				y := mct.MustAttrVect(attrs, yMap.LocalSize(rank))
				// Every rank is set up before the clock restarts and
				// none applies before it has.
				c.Barrier()
				if rank == 0 {
					b.ResetTimer()
				}
				c.Barrier()
				for k := 0; k < b.N; k++ {
					if err := mv.Apply(c, x, y, 10); err != nil {
						return err
					}
				}
				return nil
			})
			b.ReportMetric(float64(global.NNZ()*fields), "updates/op")
		})
	}
}

// BenchmarkPersistentChannel covers table B8: per-frame cost of a
// CUMULVS-style persistent channel as the frame grows.
func BenchmarkPersistentChannel(b *testing.B) {
	for _, side := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("Side%d", side), func(b *testing.B) {
			benchPersistentFrame(b, side)
		})
	}
}

// BenchmarkInterCommCoordination covers table B9: a timestamp-matched
// export/import cycle against the same redistribution executed directly.
func BenchmarkInterCommCoordination(b *testing.B) {
	const n = 1 << 12
	const m, nn = 2, 3
	srcT := mustTemplate(b, []int{n}, dad.BlockAxis(m))
	dstT := mustTemplate(b, []int{n}, dad.BlockAxis(nn))
	srcLocals := make([][]float64, m)
	for r := range srcLocals {
		srcLocals[r] = make([]float64, srcT.LocalCount(r))
	}
	dstLocals := make([][]float64, nn)
	for r := range dstLocals {
		dstLocals[r] = make([]float64, dstT.LocalCount(r))
	}
	b.Run("Direct", func(b *testing.B) {
		s, err := schedule.Build(srcT, dstT)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(n * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			redist.ExecuteLocalT(s, srcLocals, dstLocals)
		}
	})
	b.Run("Coordinated", func(b *testing.B) {
		coord := intercomm.NewCoordinator()
		coord.Retention = 2
		sim := coord.AddProgram("sim")
		viz := coord.AddProgram("viz")
		sim.DeclareArray("a", srcT)
		viz.DeclareArray("a", dstT)
		if err := coord.AddRule(intercomm.Rule{
			SrcProgram: "sim", SrcArray: "a", DstProgram: "viz", DstArray: "a",
			Match: intercomm.ExactTime,
		}); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(n * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < m; r++ {
				if err := sim.Export("a", i, r, srcLocals[r]); err != nil {
					b.Fatal(err)
				}
			}
			for r := 0; r < nn; r++ {
				if _, err := viz.Import("a", i, r, dstLocals[r]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSIDLParse measures the IDL front end (the run-time stand-in
// for SCIRun2's compile-time glue generation), relevant because Figure 4
// frameworks resolve port semantics through it.
func BenchmarkSIDLParse(b *testing.B) {
	src := `package climate version 1.0;
interface Coupler {
    collective void setField(in parallel array<double> field, in int step);
    independent double probe(in int i);
    collective oneway void advance(in int steps);
    collective array<double> exchange(inout parallel array<double> data);
}`
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := sidl.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineFusion covers table B10: a two-stage pipeline executed
// chained (per-stage materialization) vs fused (composed schedule).
func BenchmarkPipelineFusion(b *testing.B) {
	const n = 1 << 14
	src := mustTemplate(b, []int{n}, dad.BlockAxis(6))
	mid := mustTemplate(b, []int{n}, dad.CyclicAxis(4))
	sink := mustTemplate(b, []int{n}, dad.BlockAxis(2))
	p, err := pipeline.New(src,
		pipeline.Stage{Template: mid, Filter: func(x float64) float64 { return x - 273.15 }},
		pipeline.Stage{Template: sink, Filter: func(x float64) float64 { return x / 100 }},
	)
	if err != nil {
		b.Fatal(err)
	}
	in := make([][]float64, src.NumProcs())
	for r := range in {
		in[r] = make([]float64, src.LocalCount(r))
	}
	if _, err := p.RunChained(in); err != nil { // warm schedules
		b.Fatal(err)
	}
	fused, _, err := p.Fuse()
	if err != nil {
		b.Fatal(err)
	}
	s1, err := schedule.Build(src, mid)
	if err != nil {
		b.Fatal(err)
	}
	s2, err := schedule.Build(mid, sink)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Chained", func(b *testing.B) {
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			if _, err := p.RunChained(in); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(s1.NumMessages()+s2.NumMessages()), "msgs")
	})
	b.Run("Fused", func(b *testing.B) {
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			if _, err := p.RunFused(in); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(fused.NumMessages()), "msgs")
	})
}

// BenchmarkWeakScaling covers table B11: fixed per-rank volume, growing
// cohorts; a serializing design would scale linearly with total volume.
func BenchmarkWeakScaling(b *testing.B) {
	const perRank = 1 << 12
	for _, np := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("MN%d", np), func(b *testing.B) {
			n := perRank * np
			src := mustTemplate(b, []int{n}, dad.BlockAxis(np))
			dst := mustTemplate(b, []int{n}, dad.BlockCyclicAxis(np, 256))
			s, err := schedule.Build(src, dst)
			if err != nil {
				b.Fatal(err)
			}
			srcLocals := make([][]float64, np)
			dstLocals := make([][]float64, np)
			for r := 0; r < np; r++ {
				srcLocals[r] = make([]float64, src.LocalCount(r))
				dstLocals[r] = make([]float64, dst.LocalCount(r))
			}
			b.SetBytes(int64(perRank * 8)) // per-rank rate is the weak-scaling metric
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runParallel(b, 2*np, func(rank int, c *comm.Comm) error {
					lay := redist.Layout{SrcBase: 0, DstBase: np}
					var sl, dl []float64
					if rank < np {
						sl = srcLocals[rank]
					} else {
						dl = dstLocals[rank-np]
					}
					_, err := runOnce(c, s, lay, sl, dl, 0, TransferOpts{})
					return err
				})
			}
			b.ReportMetric(float64(s.NumMessages()), "msgs")
		})
	}
}
