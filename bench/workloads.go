package main

import (
	"bytes"
	"fmt"
	"time"
	"unsafe"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/prmi"
	"mxn/internal/redist"
	"mxn/internal/schedule"
	"mxn/internal/sidl"
)

// workload is one closed-loop coupling: client count 1, every step a
// round trip. Sizes and layouts are fixed here; only array contents come
// from the seed. Why each was chosen is recorded in BENCHMARK.json and
// README.md.
type workload struct {
	name string
	// stepsPerBlock is fixed per workload so that a block lasts roughly
	// 50 ms on the reference host: long enough for a stable block median,
	// short enough that the adjacent floor block sees the same host speed.
	stepsPerBlock int
	// build sets a coupling up from nothing. inproc replaces the TCP
	// session by a single world, for the per-layer comparison.
	build func(inproc bool, seed uint64, tr *tracer) (*instance, error)
}

// instance is one live coupling of a workload.
type instance struct {
	rk *ranks
	// The forward plan and its templates: what the floors and the
	// per-layer measurements size themselves by.
	srcT, dstT *dad.Template
	fwd        *schedule.Schedule
	elemBytes  int
	// local runs the forward plan through redist.ExecuteLocalT, the
	// reference executor, into a scratch destination.
	local func()
	// verify checks every output bit for bit; call it between blocks.
	verify func() error
	// close tears the coupling down and reports leaked pooled buffers.
	close func() error
}

// shape is the forward plan's message count and payload bytes; the
// reverse direction of every workload moves the same.
func (in *instance) shape() shape {
	return shape{msgs: in.fwd.NumMessages(), bytes: in.fwd.TotalElems() * in.elemBytes}
}

var workloads = []workload{
	{ // bytes dominate: 4 messages of 2 MiB each way
		name: "bulk_tcp", stepsPerBlock: 4,
		build: func(inproc bool, seed uint64, tr *tracer) (*instance, error) {
			return buildExchange(inproc, exchangeSpec{
				dims: []int{1024, 1024},
				src:  []dad.AxisDist{dad.BlockAxis(nSide), dad.CollapsedAxis()},
				dst:  []dad.AxisDist{dad.CollapsedAxis(), dad.BlockAxis(nSide)},
			}, seed, tr)
		},
	},
	{ // per-message fixed cost dominates: 4 messages of 4 KiB each way
		name: "small_tcp", stepsPerBlock: 400,
		build: func(inproc bool, seed uint64, tr *tracer) (*instance, error) {
			return buildExchange(inproc, exchangeSpec{
				dims: []int{2048},
				src:  []dad.AxisDist{dad.BlockAxis(nSide)},
				dst:  []dad.AxisDist{dad.CyclicAxis(nSide)},
			}, seed, tr)
		},
	},
	{ // the fenced, budgeted, re-planning engine path, and no socket layer
		name: "resize_inproc", stepsPerBlock: 48,
		build: buildResize,
	},
	{ // PRMI's own pack, encode and dedup path; even, so a block restores the field
		name: "prmi_tcp", stepsPerBlock: 64,
		build: buildPRMI,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rng is splitmix64: the same seed gives the same array contents.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// fill writes finite values in [0, 1) with 24 significant bits, so they
// are exact in float32 and float64 and stay exact when scaled by 2 or 0.5.
func fill[T float32 | float64](s []T, r *rng) {
	for i := range s {
		s[i] = T(r.next()>>40) / (1 << 24)
	}
}

// sameBits reports whether a and b hold identical bytes.
func sameBits[T redist.Elem](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	n := len(a) * int(unsafe.Sizeof(a[0]))
	return bytes.Equal(unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), n),
		unsafe.Slice((*byte)(unsafe.Pointer(&b[0])), n))
}

// exchangeSpec is a schedule-driven float64 round trip between a source
// and a destination cohort of nSide ranks each.
type exchangeSpec struct {
	dims     []int
	src, dst []dad.AxisDist
}

// side is what one world of a TCP coupling holds: its own templates and
// schedule cache, as a separate process would.
type side struct {
	srcT, dstT *dad.Template
	cache      *schedule.Cache
}

func newSide(spec exchangeSpec) (*side, error) {
	srcT, err := dad.NewTemplate(spec.dims, spec.src)
	if err != nil {
		return nil, err
	}
	dstT, err := dad.NewTemplate(spec.dims, spec.dst)
	if err != nil {
		return nil, err
	}
	return &side{srcT: srcT, dstT: dstT, cache: schedule.NewCache()}, nil
}

var (
	layFwd = redist.Layout{SrcBase: 0, DstBase: nSide}
	layRev = redist.Layout{SrcBase: nSide, DstBase: 0}
)

func buildExchange(inproc bool, spec exchangeSpec, seed uint64, tr *tracer) (*instance, error) {
	baseline := bufpool.Outstanding()
	fab, err := newFabric(inproc)
	if err != nil {
		return nil, err
	}
	var sides [2]*side
	for i := range sides {
		if sides[i], err = newSide(spec); err != nil {
			return nil, err
		}
		// First contact: the uncached plans of both directions.
		if _, err := sides[i].cache.Get(sides[i].srcT, sides[i].dstT); err != nil {
			return nil, err
		}
		if _, err := sides[i].cache.Get(sides[i].dstT, sides[i].srcT); err != nil {
			return nil, err
		}
	}
	a := sides[0]
	r := rng(seed)
	src, back, dst := make([][]float64, nSide), make([][]float64, nSide), make([][]float64, nSide)
	for i := 0; i < nSide; i++ {
		src[i] = make([]float64, a.srcT.LocalCount(i))
		fill(src[i], &r)
		back[i] = make([]float64, a.srcT.LocalCount(i))
		dst[i] = make([]float64, a.dstT.LocalCount(i))
	}

	body := func(rank, step int) error {
		c, sd := fab.comms[rank], sides[rank/nSide]
		var out, in []float64 // what this rank sends forward, what it gets back
		k := 0
		if rank < nSide {
			out, in = src[rank], back[rank]
			// Every step moves different data, so a step that delivered
			// nothing cannot pass for the one before it.
			k = step % len(out)
			out[k] = float64(step)
		}
		id := tr.begin("schedule.cache_get", step, rank)
		fwd, err := sd.cache.Get(sd.srcT, sd.dstT)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("redist.exchange.fwd", step, rank)
		if rank < nSide {
			err = redist.ExchangeT(c, fwd, layFwd, out, nil, 0)
		} else {
			err = redist.ExchangeT(c, fwd, layFwd, nil, dst[rank-nSide], 0)
		}
		tr.end(id)
		if err != nil {
			return err
		}
		tr.sample()
		id = tr.begin("schedule.cache_get", step, rank)
		rev, err := sd.cache.Get(sd.dstT, sd.srcT)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("redist.exchange.rev", step, rank)
		if rank < nSide {
			err = redist.ExchangeT(c, rev, layRev, nil, in, 1)
		} else {
			err = redist.ExchangeT(c, rev, layRev, dst[rank-nSide], nil, 1)
		}
		tr.end(id)
		if err != nil {
			return err
		}
		if rank < nSide && in[k] != out[k] {
			return fmt.Errorf("step %d rank %d: element %d came back as %v, sent %v", step, rank, k, in[k], out[k])
		}
		return nil
	}

	fwd, _ := a.cache.Get(a.srcT, a.dstT)
	ref := make([][]float64, nSide)
	for i := range ref {
		ref[i] = make([]float64, len(dst[i]))
	}
	inst := &instance{rk: startRanks(2*nSide, body), srcT: a.srcT, dstT: a.dstT, fwd: fwd, elemBytes: 8}
	inst.local = func() { redist.ExecuteLocalT(fwd, src, ref) }
	inst.verify = func() error {
		inst.local()
		for i := 0; i < nSide; i++ {
			if !sameBits(back[i], src[i]) {
				return fmt.Errorf("source rank %d: round trip did not return the source bit-identically", i)
			}
			if !sameBits(dst[i], ref[i]) {
				return fmt.Errorf("destination rank %d: forward transfer differs from ExecuteLocalT", i)
			}
		}
		return nil
	}
	inst.close = func() error {
		inst.rk.stop()
		fab.close()
		return drainPool(baseline)
	}
	return inst, nil
}

// Resize workload constants (see the workload's why).
const (
	resizeElems  = 262144 // float32: 1 MiB
	resizeBlock  = 256
	resizeBudget = 64 << 10
	tagCtl       = 100 // rank 0 -> others: the prepared *core.Resize
	tagDone      = 101 // others -> rank 0: migration finished
)

func buildResize(_ bool, seed uint64, tr *tracer) (*instance, error) {
	baseline := bufpool.Outstanding()
	const wide = 3
	t2, err := dad.NewTemplate([]int{resizeElems}, []dad.AxisDist{dad.BlockCyclicAxis(2, resizeBlock)})
	if err != nil {
		return nil, err
	}
	t3, err := dad.Reblock(t2, wide)
	if err != nil {
		return nil, err
	}
	cs := comm.NewWorld(wide).Comms()
	mem := core.NewMembership(2)
	cache := schedule.NewCache()
	opts := redist.FenceOpts{
		Membership:       mem,
		Policy:           redist.FailStrict,
		PollInterval:     100 * time.Microsecond,
		Cache:            cache,
		MaxBytesInFlight: resizeBudget,
	}
	// a2 is the array at width 2, a3 at width 3, b2 where the shrink lands
	// it again; rank 2 is outside the narrow cohort and holds no a2/b2.
	r := rng(seed)
	a2, b2, a3 := make([][]float32, wide), make([][]float32, wide), make([][]float32, wide)
	for i := 0; i < wide; i++ {
		if i < 2 {
			a2[i] = make([]float32, t2.LocalCount(i))
			fill(a2[i], &r)
			b2[i] = make([]float32, t2.LocalCount(i))
		}
		a3[i] = make([]float32, t3.LocalCount(i))
	}
	// cur is each rank's own view of the current template: every rank
	// re-derives the new layout itself, as separate processes would.
	cur := []*dad.Template{t2, t2, t2}

	migrate := func(rank, step int, rz *core.Resize) error {
		id := tr.begin("dad.reblock", step, rank)
		next, err := dad.Reblock(cur[rank], rz.NewWidth())
		tr.end(id)
		if err != nil {
			return err
		}
		// The resize's re-plan, made visible: the commit of the previous
		// resize dropped this pair from the cache, so the first rank here
		// runs the planner and the others join its flight; the migration
		// below then finds the plan cached.
		id = tr.begin("schedule.plan", step, rank)
		_, err = cache.Get(cur[rank], next)
		tr.end(id)
		if err != nil {
			return err
		}
		sl, dl, tag := a2[rank], a3[rank], 2
		if rz.NewWidth() < rz.OldWidth() {
			sl, dl, tag = a3[rank], b2[rank], 4
		}
		id = tr.begin("redist.reconfigure", step, rank)
		_, err = redist.ReconfigureFencedT(cs[rank], rz, cur[rank], next, redist.Layout{}, sl, dl, tag, opts)
		tr.end(id)
		tr.sample()
		cur[rank] = next
		return err
	}
	body := func(rank, step int) error {
		c := cs[rank]
		if rank != 0 {
			for phase := 0; phase < 2; phase++ {
				p, _ := c.Recv(0, tagCtl)
				err := migrate(rank, step, p.(*core.Resize))
				c.Send(0, tagDone, err)
				if err != nil {
					return err
				}
			}
			return nil
		}
		k := step % len(a2[0])
		for i := 0; i < 2; i++ {
			a2[i][k] = float32(step % (1 << 24))
		}
		for _, width := range [2]int{wide, 2} {
			id := tr.begin("core.propose", step, 0)
			rz, err := mem.ProposeResize(width)
			tr.end(id)
			if err != nil {
				return err
			}
			for r := 1; r < wide; r++ {
				c.Send(r, tagCtl, rz)
			}
			old := cur[0]
			err = migrate(0, step, rz)
			for r := 1; r < wide; r++ {
				if p, _ := c.Recv(r, tagDone); p != nil && err == nil {
					err = p.(error)
				}
			}
			if err != nil {
				return err
			}
			// Committing drops every cached plan that names the retired
			// template, so the next resize plans again.
			id = tr.begin("redist.commit", step, 0)
			_, err = redist.CommitReconfigure(rz, cache, old)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		for i := 0; i < 2; i++ {
			if b2[i][k] != a2[i][k] {
				return fmt.Errorf("step %d rank %d: element %d came back as %v, sent %v", step, i, k, b2[i][k], a2[i][k])
			}
		}
		return nil
	}

	grow, err := schedule.Remap(t2, t3)
	if err != nil {
		return nil, err
	}
	ref := make([][]float32, wide)
	for i := range ref {
		ref[i] = make([]float32, len(a3[i]))
	}
	inst := &instance{rk: startRanks(wide, body), srcT: t2, dstT: t3, fwd: grow, elemBytes: 4}
	inst.local = func() { redist.ExecuteLocalT(grow, a2[:2], ref) }
	inst.verify = func() error {
		inst.local()
		for i := 0; i < wide; i++ {
			if i < 2 && !sameBits(b2[i], a2[i]) {
				return fmt.Errorf("rank %d: grow and shrink did not return the array bit-identically", i)
			}
			if !sameBits(a3[i], ref[i]) {
				return fmt.Errorf("rank %d: grown array differs from ExecuteLocalT", i)
			}
		}
		if w := mem.Width(); w != 2 {
			return fmt.Errorf("membership width %d after a full step, want 2", w)
		}
		return nil
	}
	inst.close = func() error {
		inst.rk.stop()
		return drainPool(baseline)
	}
	return inst, nil
}

const (
	prmiElems = 8192 // float64: 64 KiB
	prmiIDL   = `package bench; interface Field { collective void scale(inout parallel array<double> field, in double factor); }`
)

func buildPRMI(inproc bool, seed uint64, tr *tracer) (*instance, error) {
	baseline := bufpool.Outstanding()
	pkg, err := sidl.Parse(prmiIDL)
	if err != nil {
		return nil, err
	}
	iface, _ := pkg.Interface("Field")
	fab, err := newFabric(inproc)
	if err != nil {
		return nil, err
	}
	// Each side builds its own copy of both templates.
	var callerT, calleeT [2]*dad.Template
	for i := 0; i < 2; i++ {
		if callerT[i], err = dad.NewTemplate([]int{prmiElems}, []dad.AxisDist{dad.CyclicAxis(nSide)}); err != nil {
			return nil, err
		}
		if calleeT[i], err = dad.NewTemplate([]int{prmiElems}, []dad.AxisDist{dad.BlockAxis(nSide)}); err != nil {
			return nil, err
		}
	}
	served := make(chan error, nSide)
	for j := 0; j < nSide; j++ {
		ep := prmi.NewEndpoint(iface, prmi.NewCommLink(fab.comms[nSide+j], 0, 0), j, nSide, nSide)
		if err := ep.RegisterArgLayout("scale", "field", calleeT[1]); err != nil {
			return nil, err
		}
		ep.Handle("scale", func(in *prmi.Incoming, out *prmi.Outgoing) error {
			factor := in.Simple["factor"].(float64)
			buf := out.Parallel["field"]
			for i := range buf {
				buf[i] *= factor
			}
			return nil
		})
		go func() { served <- ep.Serve() }()
	}
	r := rng(seed)
	ports := make([]*prmi.CallerPort, nSide)
	orig, field := make([][]float64, nSide), make([][]float64, nSide)
	for i := 0; i < nSide; i++ {
		ports[i] = prmi.NewCallerPort(iface, prmi.NewCommLink(fab.comms[i], nSide, 0), i, nSide, prmi.Eager)
		if err := ports[i].SetCalleeLayout("scale", "field", calleeT[0]); err != nil {
			return nil, err
		}
		orig[i] = make([]float64, callerT[0].LocalCount(i))
		fill(orig[i], &r)
		field[i] = append([]float64(nil), orig[i]...)
	}

	// The factor alternates 2, 0.5: every value stays exact and the field
	// is restored bit for bit by every second call.
	body := func(rank, step int) error {
		factor := 2.0
		if step%2 == 1 {
			factor = 0.5
		}
		id := tr.begin("prmi.call", step, rank)
		_, err := ports[rank].CallCollective("scale", prmi.FullParticipation(fab.callers[rank]),
			prmi.Parallel("field", callerT[0], field[rank]), prmi.Simple("factor", factor))
		tr.end(id)
		if err != nil {
			return err
		}
		k := step % len(orig[rank])
		want := orig[rank][k]
		if step%2 == 0 {
			want *= 2
		}
		if field[rank][k] != want {
			return fmt.Errorf("call %d rank %d: element %d is %v, want %v", step, rank, k, field[rank][k], want)
		}
		return nil
	}

	sched, err := schedule.Build(callerT[0], calleeT[0])
	if err != nil {
		return nil, err
	}
	inst := &instance{rk: startRanks(nSide, body), srcT: callerT[0], dstT: calleeT[0], fwd: sched, elemBytes: 8}
	ref := [][]float64{make([]float64, calleeT[0].LocalCount(0)), make([]float64, calleeT[0].LocalCount(1))}
	inst.local = func() { redist.ExecuteLocalT(sched, field, ref) }
	want := make([]float64, len(orig[0]))
	inst.verify = func() error {
		scale := 1.0
		if inst.rk.next%2 == 1 {
			scale = 2
		}
		for i := 0; i < nSide; i++ {
			for k, v := range orig[i] {
				want[k] = v * scale
			}
			if !sameBits(field[i], want) {
				return fmt.Errorf("caller rank %d: field is not the exact scaled value after %d calls", i, inst.rk.next)
			}
		}
		return nil
	}
	inst.close = func() error {
		inst.rk.stop()
		var first error
		for _, p := range ports {
			if err := p.Close(); err != nil && first == nil {
				first = err
			}
		}
		for j := 0; j < nSide; j++ {
			if err := <-served; err != nil && first == nil {
				first = err
			}
		}
		fab.close()
		if err := drainPool(baseline); err != nil && first == nil {
			first = err
		}
		return first
	}
	return inst, nil
}
