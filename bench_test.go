package mxn

// Benchmark suite: one testing.B benchmark (or family) per figure and
// per benchmark table of EXPERIMENTS.md. The human-readable experiment
// report with paper-style tables is produced by cmd/mxnbench; these
// benchmarks are the machine-readable counterpart:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"sync"
	"testing"

	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/dapkg"
	"mxn/internal/intercomm"
	"mxn/internal/linear"
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
	const m, n, side = 2, 2, 64
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
	b.SetBytes(side * side * 8)
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
	benchCollective(b, prmi.BarrierDelayed)
}

// BenchmarkFigure5Eager is the same invocation with eager delivery — the
// barrier's price is the difference (safety is the deadlock avoided).
func BenchmarkFigure5Eager(b *testing.B) {
	benchCollective(b, prmi.Eager)
}

func benchCollective(b *testing.B, mode prmi.DeliveryMode) {
	pkg, _ := sidl.Parse(`package p; interface I { collective double f(in double x); }`)
	iface, _ := pkg.Interface("I")
	const m, n = 2, 2
	w := comm.NewWorld(m + n)
	all := w.Comms()
	cohort := w.Group([]int{0, 1})
	var serveWG sync.WaitGroup
	for j := 0; j < n; j++ {
		serveWG.Add(1)
		go func(j int) {
			defer serveWG.Done()
			ep := prmi.NewEndpoint(iface, prmi.NewCommLink(all[m+j], 0, 0), j, n, m)
			ep.Handle("f", func(in *prmi.Incoming, out *prmi.Outgoing) error {
				out.Return = 0.0
				return nil
			})
			ep.Serve()
		}(j)
	}
	ports := make([]*prmi.CallerPort, m)
	for i := 0; i < m; i++ {
		ports[i] = prmi.NewCallerPort(iface, prmi.NewCommLink(all[i], m, 0), i, n, mode)
	}
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		var wg sync.WaitGroup
		for i := 0; i < m; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := ports[i].CallCollective("f", prmi.FullParticipation(cohort[i]), prmi.Simple("x", 1.0)); err != nil {
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

// BenchmarkScheduleBuild covers table B1: schedule construction cost for
// aligned (block→block) and fragmented (block→cyclic) pairs.
func BenchmarkScheduleBuild(b *testing.B) {
	const n = 1 << 14
	cases := []struct {
		name     string
		src, dst dad.AxisDist
	}{
		{"BlockToBlock", dad.BlockAxis(8), dad.BlockAxis(16)},
		{"BlockToCyclic", dad.BlockAxis(8), dad.CyclicAxis(16)},
		{"BlockCyclicToBlockCyclic", dad.BlockCyclicAxis(8, 32), dad.BlockCyclicAxis(16, 64)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			src := mustTemplate(b, []int{n}, c.src)
			dst := mustTemplate(b, []int{n}, c.dst)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := schedule.Build(src, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleReuse covers table B2: a steady-state cached transfer.
func BenchmarkScheduleReuse(b *testing.B) {
	const n = 1 << 16
	src := mustTemplate(b, []int{n}, dad.BlockAxis(8))
	dst := mustTemplate(b, []int{n}, dad.BlockCyclicAxis(8, 64))
	cache := schedule.NewCache()
	srcLocals := make([][]float64, 8)
	dstLocals := make([][]float64, 8)
	for r := 0; r < 8; r++ {
		srcLocals[r] = make([]float64, src.LocalCount(r))
		dstLocals[r] = make([]float64, dst.LocalCount(r))
	}
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := cache.Get(src, dst)
		if err != nil {
			b.Fatal(err)
		}
		redist.ExecuteLocalT(s, srcLocals, dstLocals)
	}
}

// BenchmarkDistributionKinds covers table B3: transfer cost by source
// distribution kind (schedules prebuilt).
func BenchmarkDistributionKinds(b *testing.B) {
	const n = 1 << 14
	const np = 8
	owners := make([]int, n)
	for i := range owners {
		owners[i] = (i / 37) % np
	}
	kinds := []struct {
		name string
		ax   dad.AxisDist
	}{
		{"Block", dad.BlockAxis(np)},
		{"Cyclic", dad.CyclicAxis(np)},
		{"BlockCyclic64", dad.BlockCyclicAxis(np, 64)},
		{"Implicit", dad.ImplicitAxis(np, owners)},
	}
	dst := mustTemplate(b, []int{n}, dad.BlockAxis(np))
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			src := mustTemplate(b, []int{n}, k.ax)
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
			b.SetBytes(int64(n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				redist.ExecuteLocalT(s, srcLocals, dstLocals)
			}
		})
	}
}

// BenchmarkLinearizationVsDAD covers table B4.
func BenchmarkLinearizationVsDAD(b *testing.B) {
	const n = 1 << 13
	const m, nn = 2, 3
	src := mustTemplate(b, []int{n}, dad.BlockAxis(m))
	dst := mustTemplate(b, []int{n}, dad.CyclicAxis(nn))

	b.Run("DADSchedule", func(b *testing.B) {
		s, err := schedule.Build(src, dst)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
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
	b.Run("LinearReceiverDriven", func(b *testing.B) {
		srcLin := linear.NewRowMajor(src)
		dstLin := linear.NewRowMajor(dst)
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			runParallel(b, m+nn, func(rank int, c *comm.Comm) error {
				lay := redist.Layout{SrcBase: 0, DstBase: m}
				var sl, dl []float64
				if rank < m {
					sl = make([]float64, src.LocalCount(rank))
				} else {
					dl = make([]float64, dst.LocalCount(rank-m))
				}
				xt, err := NewLinearTransfer(c, srcLin, dstLin, lay, m, nn, 0, TransferOpts{})
				if err == nil {
					_, err = xt.Run(sl, dl)
				}
				return err
			})
		}
	})
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

// BenchmarkConverterScaling covers table B6.
func BenchmarkConverterScaling(b *testing.B) {
	tpl := mustTemplate(b, []int{256, 256}, dad.BlockAxis(1), dad.CollapsedAxis())
	pkgs := dapkg.Builtin(3)
	src, dst := pkgs[1], pkgs[2]
	cs, _ := dapkg.NewConverter(src, tpl, 0)
	cd, _ := dapkg.NewConverter(dst, tpl, 0)
	direct, _ := dapkg.NewDirectConverter(src, dst, tpl, 0)
	in := make([]float64, cs.Len())
	out := make([]float64, cs.Len())
	scratch := make([]float64, cs.Len())
	b.Run("ViaDADHub", func(b *testing.B) {
		b.SetBytes(int64(cs.Len() * 8))
		for i := 0; i < b.N; i++ {
			dapkg.ViaHub(cs, cd, in, scratch, out)
		}
	})
	b.Run("DirectPairwise", func(b *testing.B) {
		b.SetBytes(int64(cs.Len() * 8))
		for i := 0; i < b.N; i++ {
			direct.Convert(in, out)
		}
	})
}

// BenchmarkMCTInterp covers table B7: the distributed regrid matvec.
func BenchmarkMCTInterp(b *testing.B) {
	const np = 4
	global := meshsim.RegridMatrix(72, 48, 48, 32)
	xMap := mct.BlockMap(72*48, np)
	yMap := mct.BlockMap(48*32, np)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runParallel(b, np, func(rank int, c *comm.Comm) error {
			mv, err := mct.NewMatVec(c, meshsim.LocalMatrix(global, yMap, rank), xMap, yMap, 0)
			if err != nil {
				return err
			}
			x := mct.MustAttrVect([]string{"t", "q"}, xMap.LocalSize(rank))
			y := mct.MustAttrVect([]string{"t", "q"}, yMap.LocalSize(rank))
			for k := 0; k < 4; k++ {
				if err := mv.Apply(c, x, y, 10); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// BenchmarkPersistentChannel covers table B8: per-frame cost of a
// CUMULVS-style persistent channel.
func BenchmarkPersistentChannel(b *testing.B) {
	BenchmarkFigure3PairedComponents(b)
}

// BenchmarkInterCommCoordination covers table B9: a timestamp-matched
// export/import cycle.
func BenchmarkInterCommCoordination(b *testing.B) {
	const n = 1 << 12
	const m, nn = 2, 3
	srcT := mustTemplate(b, []int{n}, dad.BlockAxis(m))
	dstT := mustTemplate(b, []int{n}, dad.BlockAxis(nn))
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
	srcLocals := make([][]float64, m)
	for r := range srcLocals {
		srcLocals[r] = make([]float64, srcT.LocalCount(r))
	}
	dstLocals := make([][]float64, nn)
	for r := range dstLocals {
		dstLocals[r] = make([]float64, dstT.LocalCount(r))
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
	if _, _, err := p.Fuse(); err != nil {
		b.Fatal(err)
	}
	b.Run("Chained", func(b *testing.B) {
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			if _, err := p.RunChained(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Fused", func(b *testing.B) {
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			if _, err := p.RunFused(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWeakScaling covers table B11: fixed per-rank volume, growing
// cohorts; a serializing design would scale linearly with total volume.
func BenchmarkWeakScaling(b *testing.B) {
	const perRank = 1 << 12
	for _, np := range []int{2, 4, 8} {
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
		})
	}
}
