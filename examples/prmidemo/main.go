// PRMI demo: parallel remote method invocation between two parallel
// components connected over real TCP sockets — the distributed-framework
// deployment of the paper's Section 2.4.
//
// A 4-rank "driver" component holds a distributed vector and invokes a
// 3-rank "solver" component through a port declared in SIDL:
//
//   - a collective method with a parallel argument: the vector is
//     redistributed automatically from the driver's cyclic decomposition
//     to the solver's block decomposition (M=4 → N=3, so the framework
//     creates ghost returns);
//   - an independent (one-to-one) method;
//   - a collective one-way method (fire and forget).
//
// The two components live in two worlds — two processes in a real
// deployment — coupled by ConnectPeer over one TCP connection, the way a
// distributed framework couples its address spaces: every PRMI message
// between a driver rank and a solver rank crosses that socket. The demo
// checks the three results and exits 1 if one is wrong.
//
// Run:
//
//	go run ./examples/prmidemo
package main

import (
	"fmt"
	"log"
	"sync"

	"mxn"
)

const idl = `
package demo version 1.0;

interface VectorOps {
    collective double dot(in parallel array<double> x, in parallel array<double> y);
    collective void normalize(inout parallel array<double> x, in double norm);
    independent double element(in int i);
    collective oneway void report(in string phase);
}
`

const (
	m = 4 // driver ranks
	n = 3 // solver ranks
	d = 24
)

func main() {
	pkg, err := mxn.ParseSIDL(idl)
	if err != nil {
		log.Fatal(err)
	}
	iface, _ := pkg.Interface("VectorOps")

	// Decompositions: the driver sees the vector cyclically, the solver
	// in blocks. The middleware bridges them per call.
	callerTpl, err := mxn.NewTemplate([]int{d}, []mxn.AxisDist{mxn.CyclicAxis(m)})
	if err != nil {
		log.Fatal(err)
	}
	calleeTpl, err := mxn.NewTemplate([]int{d}, []mxn.AxisDist{mxn.BlockAxis(n)})
	if err != nil {
		log.Fatal(err)
	}

	// Both worlds number the ranks alike: drivers 0..m-1, then solvers
	// m..m+n-1. Each binds the other side's ranks to its end of the
	// connection, and a shared group spanning all of them carries PRMI.
	l, err := mxn.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan mxn.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			log.Fatal(err)
		}
		accepted <- c
	}()
	cli, err := mxn.Dial("tcp", l.Addr())
	if err != nil {
		log.Fatal(err)
	}
	all := make([]int, m+n)
	for r := range all {
		all[r] = r
	}
	driverWorld, solverWorld := mxn.NewWorld(m+n), mxn.NewWorld(m+n)
	driverPeer := driverWorld.ConnectPeer(cli, all[m:])
	solverPeer := solverWorld.ConnectPeer(<-accepted, all[:m])
	defer solverPeer.Close()
	defer driverPeer.Close()
	driverSide, solverSide := driverWorld.SharedGroup(1, all), solverWorld.SharedGroup(1, all)

	// Solver cohort: each rank serves its endpoint; the cohort cooperates
	// out-of-band for the dot product's global reduction.
	solverCohort := solverWorld.Group(all[m:])
	var wg sync.WaitGroup
	for j := 0; j < n; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			runSolver(iface, calleeTpl, mxn.NewCommLink(solverSide[m+j], 0, 0), solverCohort[j], j)
		}(j)
	}

	// Driver cohort.
	driverCohort := driverWorld.Group(all[:m])
	results := make([]string, 3)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runDriver(iface, callerTpl, calleeTpl, mxn.NewCommLink(driverSide[i], m, 0), driverCohort[i], i, results)
		}(i)
	}
	wg.Wait()
	for _, line := range results {
		fmt.Println(line)
	}
}

// runSolver serves one solver rank.
func runSolver(iface *mxn.SIDLInterface, calleeTpl *mxn.Template, link mxn.Link, cohort *mxn.Comm, rank int) {
	ep := mxn.NewEndpoint(iface, link, rank, n, m)
	for _, param := range []struct{ method, name string }{
		{"dot", "x"}, {"dot", "y"}, {"normalize", "x"},
	} {
		if err := ep.RegisterArgLayout(param.method, param.name, calleeTpl); err != nil {
			log.Fatal(err)
		}
	}
	ep.Handle("dot", func(in *mxn.Incoming, out *mxn.Outgoing) error {
		x, y := in.Parallel["x"], in.Parallel["y"]
		partial := 0.0
		for i := range x {
			partial += x[i] * y[i]
		}
		out.Return = cohort.AllreduceFloat64(partial, 0)
		return nil
	})
	ep.Handle("normalize", func(in *mxn.Incoming, out *mxn.Outgoing) error {
		norm := in.Simple["norm"].(float64)
		buf := out.Parallel["x"]
		for i := range buf {
			buf[i] /= norm
		}
		return nil
	})
	ep.Handle("element", func(in *mxn.Incoming, out *mxn.Outgoing) error {
		// Serial semantics: answer from this rank's block.
		gi := int(in.Simple["i"].(int64))
		out.Return = float64(gi + 1)
		return nil
	})
	ep.Handle("report", func(in *mxn.Incoming, out *mxn.Outgoing) error {
		return nil // a real solver would log the phase
	})
	if err := ep.Serve(); err != nil {
		log.Fatalf("solver rank %d: %v", rank, err)
	}
}

// runDriver drives one caller rank.
func runDriver(iface *mxn.SIDLInterface, callerTpl, calleeTpl *mxn.Template,
	link mxn.Link, cohort *mxn.Comm, rank int, results []string) {

	port := mxn.NewCallerPort(iface, link, rank, n, mxn.BarrierDelayed)
	for _, p := range []struct{ method, name string }{
		{"dot", "x"}, {"dot", "y"}, {"normalize", "x"},
	} {
		if err := port.SetCalleeLayout(p.method, p.name, calleeTpl); err != nil {
			log.Fatal(err)
		}
	}
	part := mxn.FullParticipation(cohort)

	// The local fragment of x = (1, 2, ..., d) under the cyclic layout.
	x := make([]float64, callerTpl.LocalCount(rank))
	for li := range x {
		x[li] = float64(rank + li*m + 1)
	}

	if _, err := port.CallCollective("report", part, mxn.Simple("phase", "start")); err != nil {
		log.Fatalf("driver %d: %v", rank, err)
	}
	res, err := port.CallCollective("dot", part,
		mxn.Parallel("x", callerTpl, x), mxn.Parallel("y", callerTpl, x))
	if err != nil {
		log.Fatalf("driver %d: %v", rank, err)
	}
	dot := res.Return.(float64)
	if dot != 4900 {
		log.Fatalf("driver %d: dot(x,x) = %v, want 4900", rank, dot)
	}
	if rank == 0 {
		results[0] = fmt.Sprintf("collective dot(x,x) over M=%d→N=%d ranks: %.0f (exact: %d·%d·%d/6 = 4900)",
			m, n, dot, d, d+1, 2*d+1)
	}
	// Normalize in place: the inout parallel argument comes back
	// redistributed into the driver's own layout.
	if _, err := port.CallCollective("normalize", part,
		mxn.Parallel("x", callerTpl, x), mxn.Simple("norm", dot)); err != nil {
		log.Fatalf("driver %d: %v", rank, err)
	}
	if rank == 0 && x[0] != 1.0/4900 {
		log.Fatalf("driver 0: normalized x[0] = %v, want 1/4900", x[0])
	}
	if rank == 0 {
		results[1] = fmt.Sprintf("after inout normalize: x[0] = %.6f (want %d/%.0f = %.6f)", x[0], 1, dot, 1/dot)
	}
	// Independent one-to-one call from driver rank 0 to solver rank 1.
	if rank == 0 {
		r, err := port.CallIndependent(1, "element", mxn.Simple("i", 5))
		if err != nil {
			log.Fatalf("driver %d: %v", rank, err)
		}
		if r.Return != 6.0 {
			log.Fatalf("driver 0: element(5) = %v, want 6", r.Return)
		}
		results[2] = fmt.Sprintf("independent element(5) on solver rank 1: %v", r.Return)
	}
	if err := port.Close(); err != nil {
		log.Fatal(err)
	}
}
