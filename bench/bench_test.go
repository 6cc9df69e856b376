package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"mxn/internal/bufpool"
)

// syntheticBlocks makes blocks whose true step/floor ratio is 3, with a
// few percent of jitter on every sample. speed is the host's slowness at
// sample i of block b, where samples 0..49 are the block's steps and
// 50..99 its floor operations, in the order they run.
func syntheticBlocks(n int, speed func(b, i int) float64) *samples {
	r := rng(7)
	jitter := func() float64 { return 1 + 0.06*(float64(r.next()>>40)/(1<<24)-0.5) }
	out := &samples{keepAll: true}
	for b := 0; b < n; b++ {
		var blk block
		for i := 0; i < 50; i++ {
			blk.step = append(blk.step, 300*speed(b, i)*jitter())
			blk.floor = append(blk.floor, 100*speed(b, 50+i)*jitter())
		}
		out.add(blk)
	}
	return out
}

// A phase during which the host runs at half speed must not move the
// estimator: inside the phase it slows a block's steps and its floor
// alike, and the two blocks it starts and ends in are two among hundreds.
func TestBlockRatioIgnoresSlowPhase(t *testing.T) {
	steady := syntheticBlocks(300, func(int, int) float64 { return 1 }).stepXFloor()
	// Starts between the steps and the floor of block 100 — the worst
	// case, a ratio of 1.5 instead of 3 — and ends inside block 180's floor.
	slow := func(b, i int) float64 {
		if at := 100*b + i; at >= 100*100+50 && at < 100*180+75 {
			return 2
		}
		return 1
	}
	slowed := syntheticBlocks(300, slow).stepXFloor()
	if math.Abs(steady-3) > 0.03 {
		t.Errorf("steady estimate %.4f, want 3 within 1%%", steady)
	}
	if d := math.Abs(slowed-steady) / steady; d > 0.02 {
		t.Errorf("a 2x slow phase moved the estimate by %.2f%% (%.4f -> %.4f), want < 2%%", 100*d, steady, slowed)
	}
	// The raw median is what such a phase does move.
	raw := syntheticBlocks(300, slow).steps
	sort.Float64s(raw)
	if p75 := raw[len(raw)*3/4]; p75 < 500 {
		t.Errorf("raw p75 %.1f: the synthetic slow phase is not visible, the test proves nothing", p75)
	}
}

func TestMedianAndHiPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	v, pct := hiPercentile(xs)
	if v != 989 || pct != 99 {
		t.Errorf("hiPercentile = %v at p%v, want 989 at p99 (ten samples beyond)", v, pct)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "step", Start: 0, End: 100, Parent: -1, Step: 4},
		{Name: "a", Start: 10, End: 30, Parent: -1, Step: 4, Rank: 0},
		{Name: "a", Start: 20, End: 50, Parent: -1, Step: 4, Rank: 1},  // overlaps the first
		{Name: "b", Start: 90, End: 120, Parent: -1, Step: 4, Rank: 2}, // ends after the parent
		{Name: "micro", Start: 200, End: 260, Parent: -1, Step: -1},
	}
	linkSteps(spans)
	for i := 1; i <= 3; i++ {
		if spans[i].Parent != 0 {
			t.Fatalf("span %d parent = %d, want 0", i, spans[i].Parent)
		}
	}
	if spans[4].Parent != -1 {
		t.Fatalf("a span outside any step got parent %d", spans[4].Parent)
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [90,100) of the step: 50 of 100.
	want := []int64{50, 20, 30, 30, 60}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, self[i], want[i])
		}
	}
	if got := rankSkew(spans); got != 10 {
		t.Errorf("rank skew = %v, want 10 (ranks spent 20, 30, 30)", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the code must name the same workloads and metrics,
// and both must stay inside what the driver accepts.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for i, w := range workloads {
		checkName(w.name)
		got := spec.Workloads[i]
		if got.Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q", i, got.Name, w.name)
		}
		if got.Why == "" || len(got.Why) > 200 || strings.ContainsAny(got.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(got.Why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, d := range want {
			checkName(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q not accepted", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s: bound present = %v, want %v", d.Name, g.Bound != nil, bounded)
			}
			if g.Bound != nil && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, *g.Bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("setup_s is missing")
	}
}

func restoreProcs(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// Every workload runs 100 verified steps over its real fabric and a few in
// one world, returns every pooled buffer, and produces the same outputs
// from the same seed.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, inproc := range []bool{false, true} {
				baseline := bufpool.Outstanding()
				inst, err := w.build(inproc, 42, nil)
				if err != nil {
					t.Fatal(err)
				}
				steps := 100
				if inproc {
					steps = 10
				}
				var times []float64
				if err := inst.rk.run(steps, &times, nil); err != nil {
					t.Fatal(err)
				}
				if len(times) != steps {
					t.Errorf("timed %d steps, ran %d", len(times), steps)
				}
				if err := inst.verify(); err != nil {
					t.Error(err)
				}
				if err := inst.close(); err != nil {
					t.Error(err)
				}
				if d := bufpool.Outstanding() - baseline; d != 0 {
					t.Errorf("inproc=%v: %d pooled buffers outstanding after teardown", inproc, d)
				}
			}
		})
	}
}

func TestFloors(t *testing.T) {
	sh := shape{msgs: 4, bytes: 300 << 10}
	sf, err := newSockFloor(sh)
	if err != nil {
		t.Fatal(err)
	}
	if sf.chunk != 64<<10 { // 75 KiB messages are cut into 64 KiB chunks
		t.Errorf("sock floor chunk is %d bytes, want 64 KiB", sf.chunk)
	}
	for i := 0; i < 3; i++ {
		if err := sf.op(); err != nil {
			t.Fatal(err)
		}
	}
	sf.close()
	mf := newMemFloor(sh)
	for i := 0; i < 3; i++ {
		if err := mf.op(); err != nil {
			t.Fatal(err)
		}
	}
	mf.close()
}

// The two passes, run short, report exactly the metrics they promise.
func TestPassesReportEveryMetric(t *testing.T) {
	restoreProcs(t)
	names := []string{"small_tcp"}
	if !testing.Short() {
		names = []string{"small_tcp", "resize_inproc", "prmi_tcp", "bulk_tcp"}
	}
	for _, name := range names {
		w, _ := findWorkload(name)
		res, err := gatedPass(w, 3, 300*time.Millisecond)
		if err != nil {
			t.Fatalf("%s gated: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s gated: %+v", name, res)
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", name, d.Name, v)
			}
		}
		res, spans, err := tracedPass(w, 3, 800*time.Millisecond)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		dir := t.TempDir()
		if err := writeTrace(dir, name, newHostRecord(name, 3, time.Now()), spans); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || len(res.Metrics) != len(perLayer) {
			t.Errorf("%s traced: correct=%v, %d metrics, want %d", name, res.Correct, len(res.Metrics), len(perLayer))
		}
		if v := res.Metrics["bufpool.outstanding_end"].Value; v != 0 {
			t.Errorf("%s: bufpool.outstanding_end = %v, want 0", name, v)
		}
		if (name == "resize_inproc") != (res.Metrics["session.frames_per_step"].Value == 0) {
			t.Errorf("%s: session.frames_per_step = %v", name, res.Metrics["session.frames_per_step"].Value)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace_"+name+".json")); err != nil {
			t.Error(err)
		}
	}
}
