package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/obs"
	"mxn/internal/redist"
)

const (
	// The pass that records spans has a fixed length: tracedBlocks blocks,
	// fewer where that would be more than tracedSteps steps (the trace
	// file of small_tcp would run to megabytes), but at least four.
	tracedBlocks = 20
	tracedSteps  = 1600
	// countBlocks is the fixed length of the pass that reads counters and
	// allocation statistics with nothing else running.
	countBlocks = 10
)

func counter(name string) *obs.Counter { return obs.Default().Counter(name) }

// tracedPass yields the per-layer metrics: an untraced reference pass, a
// counting pass, a pass with spans recorded, the same step in one world, a
// pass at GOMAXPROCS = nproc, and the per-layer measurements of layers.go.
// None of it feeds an end-to-end metric.
func tracedPass(w workload, seed uint64, budget time.Duration) (result, []span, error) {
	runtime.GOMAXPROCS(1)
	res := result{Metrics: map[string]metricValue{}}
	m := map[string]float64{}
	attempted := 0
	fail := func(err error) (result, []span, error) {
		res.Attempted = attempted
		return res, nil, err
	}
	baseline := bufpool.Outstanding()

	// Untraced reference: the gated pass's loop, shorter.
	inst, fl, err := openWarm(w, seed, nil)
	if err != nil {
		return fail(err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ref := &samples{keepAll: true}
	for start := time.Now(); time.Since(start) < budget/5; {
		if err := runBlock(w, inst, fl, nil, ref); err != nil {
			return fail(err)
		}
	}
	runtime.ReadMemStats(&ms1)
	attempted += ref.attempted
	p50 := median(ref.steps)
	hi, pct := hiPercentile(ref.steps)
	m["bench.step_p50_us"] = p50 / 1e3
	m["bench.step_hi_us"] = hi / 1e3
	m["bench.step_hi_pct"] = pct
	m["bench.samples"] = float64(len(ref.steps))
	m["bench.cpu_us_per_step"] = ref.cpuNS / 1e3 / float64(ref.attempted)
	m["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)

	// Counting pass: a fixed number of steps and nothing else, so that
	// counts per step repeat from run to run.
	n := countBlocks * w.stepsPerBlock
	times := make([]float64, 0, n)
	before := map[string]uint64{}
	for _, name := range []string{"redist.msgs_sent", "redist.rounds_sent", "redist.acks_sent",
		"bufpool.gets", "bufpool.misses", "wire.bytes_vectored", "wire.bytes_copied",
		"wire.frames_written", "session.acks_sent"} {
		before[name] = counter(name).Value()
	}
	redist.ResetPackedBytesHighWater()
	runtime.ReadMemStats(&ms0)
	err = inst.rk.run(n, &times, nil)
	runtime.ReadMemStats(&ms1)
	attempted += n
	if err != nil {
		return fail(err)
	}
	delta := func(name string) float64 {
		b, ok := before[name]
		if !ok {
			panic("bench: counter not read before the pass: " + name)
		}
		return float64(counter(name).Value() - b)
	}
	perStep := func(v float64) float64 { return v / float64(n) }
	m["go.allocs_per_step"] = perStep(float64(ms1.Mallocs - ms0.Mallocs))
	m["go.alloc_bytes_per_step"] = perStep(float64(ms1.TotalAlloc - ms0.TotalAlloc))
	m["redist.msgs_per_step"] = perStep(delta("redist.msgs_sent"))
	m["redist.rounds_per_step"] = perStep(delta("redist.rounds_sent"))
	m["redist.acks_per_step"] = perStep(delta("redist.acks_sent"))
	m["redist.bytes_per_step"] = float64(2 * inst.shape().bytes) // computed, both directions
	m["redist.peak_packed_bytes"] = float64(redist.PackedBytesHighWater())
	m["bufpool.miss_pct"] = pctOf(delta("bufpool.misses"), delta("bufpool.gets"))
	m["wire.vectored_pct"] = pctOf(delta("wire.bytes_vectored"), delta("wire.bytes_vectored")+delta("wire.bytes_copied"))
	m["session.frames_per_step"] = perStep(delta("wire.frames_written"))
	m["session.acks_per_step"] = perStep(delta("session.acks_sent"))
	if err := inst.verify(); err != nil {
		return fail(err)
	}
	fl.close()
	err = inst.close()
	m["bufpool.outstanding_end"] = float64(bufpool.Outstanding() - baseline)
	if err != nil {
		return fail(err)
	}

	// Traced pass: the same loop with spans recorded in memory.
	tr := newTracer()
	inst, fl, err = openWarm(w, seed, tr)
	if err != nil {
		return fail(err)
	}
	tr.spans = tr.spans[:0] // the warm-up's ranks left spans behind
	traced := &samples{keepAll: true}
	for i := 0; i < min(tracedBlocks, max(4, tracedSteps/w.stepsPerBlock)); i++ {
		if err := runBlock(w, inst, fl, tr, traced); err != nil {
			return fail(err)
		}
	}
	attempted += traced.attempted
	fl.close()
	if err := inst.close(); err != nil {
		return fail(err)
	}
	linkSteps(tr.spans)
	m["bench.trace_overhead_pct"] = 100 * (median(traced.steps)/p50 - 1)
	m["redist.rank_skew_us"] = rankSkew(tr.spans) / 1e3
	m["bufpool.outstanding_peak"] = float64(tr.peakOutstanding - baseline)
	m["session.replay_depth_peak"] = float64(tr.peakReplay)

	// The same step in one world: what is left of it without the socket.
	one, err := w.build(true, seed, nil)
	if err != nil {
		return fail(err)
	}
	mt := &meter{tr: tr, d: budget / 100, m: m}
	var inproc []float64
	id := tr.begin("redist.exchange_inproc_us", -1, -1)
	for start := time.Now(); time.Since(start) < 4*mt.d; attempted += w.stepsPerBlock {
		if err := one.rk.run(w.stepsPerBlock, &inproc, nil); err != nil {
			return fail(err)
		}
	}
	tr.end(id)
	m["redist.exchange_inproc_us"] = median(inproc) / 1e3
	m["bench.socket_share_pct"] = 100 * (1 - median(inproc)/p50)

	// One short pass on every core with its own floor, so that what
	// concurrency does to the step stays visible. Never gated.
	runtime.GOMAXPROCS(runtime.NumCPU())
	pinst, pfl, err := openWarm(w, seed, nil)
	if err != nil {
		return fail(err)
	}
	par := &samples{}
	for start := time.Now(); time.Since(start) < budget/12; {
		if err := runBlock(w, pinst, pfl, nil, par); err != nil {
			return fail(err)
		}
	}
	attempted += par.attempted
	pfl.close()
	if err := pinst.close(); err != nil {
		return fail(err)
	}
	runtime.GOMAXPROCS(1)
	m["bench.step_par_x_floor"] = par.stepXFloor()

	if err := measureLayers(mt, one); err != nil {
		return fail(err)
	}
	if err := one.close(); err != nil {
		return fail(err)
	}

	for _, d := range perLayer {
		v, ok := m[d.Name]
		if !ok {
			return fail(fmt.Errorf("per-layer metric %s was not measured", d.Name))
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	res.Correct = true
	res.Attempted = attempted
	return res, tr.spans, nil
}

func pctOf(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// rankSkew is the outside view of waiting: per step, the time each rank
// spent inside its calls, and the gap between the rank that spent most
// and the rank that spent least; the median over steps, in nanoseconds.
func rankSkew(spans []span) float64 {
	perStep := map[int]map[int]int64{}
	for _, s := range spans {
		if s.Name == "step" || s.Step < 0 {
			continue
		}
		if perStep[s.Step] == nil {
			perStep[s.Step] = map[int]int64{}
		}
		perStep[s.Step][s.Rank] += s.End - s.Start
	}
	var skews []float64
	for _, byRank := range perStep {
		lo, hi := int64(math.MaxInt64), int64(0)
		for _, d := range byRank {
			lo, hi = min(lo, d), max(hi, d)
		}
		skews = append(skews, float64(hi-lo))
	}
	return median(skews)
}
