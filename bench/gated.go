package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

const (
	// warmBlocks is the fixed-count warm-up: pools, schedule caches, TCP
	// windows and the floor's connection are warm before anything is timed.
	warmBlocks = 5
	// coldSetups is how many complete set-ups are timed, spread evenly
	// through the measured phase so that setup_s sees the same mix of host
	// speeds as the steps do.
	coldSetups = 25
)

func cpuTimeNS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// openWarm builds a coupling with its floor and runs the fixed warm-up of
// warmBlocks blocks through both.
func openWarm(w workload, seed uint64, tr *tracer) (*instance, *sockFloor, error) {
	inst, err := w.build(false, seed, tr)
	if err != nil {
		return nil, nil, err
	}
	fl, err := newSockFloor(inst.shape())
	if err != nil {
		return nil, nil, err
	}
	warm := &samples{}
	for i := 0; i < warmBlocks; i++ {
		if err := runBlock(w, inst, fl, nil, warm); err != nil {
			return nil, nil, err
		}
	}
	return inst, fl, nil
}

// runBlock runs one block of steps, then the same number of floor
// operations while the other ranks sit blocked, then checks every output.
// Any error leaves the coupling unusable and ends the run.
func runBlock(w workload, inst *instance, fl *sockFloor, tr *tracer, out *samples) error {
	n := w.stepsPerBlock
	b := &out.scratch
	b.step, b.floor = b.step[:0], b.floor[:0]
	cpu0 := cpuTimeNS()
	err := inst.rk.run(n, &b.step, tr)
	out.cpuNS += cpuTimeNS() - cpu0
	out.attempted += n
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fl.op(); err != nil {
			return fmt.Errorf("floor: %w", err)
		}
		b.floor = append(b.floor, float64(time.Since(t0)))
	}
	if err := inst.verify(); err != nil {
		return err
	}
	out.add(*b)
	return nil
}

// coldSetup times one complete set-up: new worlds, listener, session
// handshake, peer binding, templates, uncached plans, buffers and their
// seeded fill, endpoints and ports where used, one verified step, and
// teardown.
func coldSetup(w workload, seed uint64) (seconds float64, err error) {
	t0 := time.Now()
	inst, err := w.build(false, seed, nil)
	if err != nil {
		return 0, err
	}
	var scratch []float64
	if err := inst.rk.run(1, &scratch, nil); err != nil {
		return 0, err
	}
	if err := inst.verify(); err != nil {
		return 0, err
	}
	if err := inst.close(); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// gatedPass is the untraced pass that yields the end-to-end metrics. It
// runs on one P: with four ranks on two vCPUs a larger GOMAXPROCS measures
// the Go scheduler's cross-core wake-ups, not the program.
func gatedPass(w workload, seed uint64, budget time.Duration) (result, error) {
	runtime.GOMAXPROCS(1)
	res := result{Metrics: map[string]metricValue{}}
	out := &samples{}
	var setupS []float64
	fail := func(err error) (result, error) {
		res.Attempted = warmBlocks*w.stepsPerBlock + out.attempted + len(setupS)
		return res, err
	}
	inst, fl, err := openWarm(w, seed, nil)
	if err != nil {
		return fail(err)
	}
	start := time.Now()
	for time.Since(start) < budget {
		if err := runBlock(w, inst, fl, nil, out); err != nil {
			return fail(err)
		}
		// Set-up k is due at (k + ½)/coldSetups of the phase.
		for len(setupS) < coldSetups &&
			time.Since(start).Seconds() >= (float64(len(setupS))+0.5)/coldSetups*budget.Seconds() {
			s, err := coldSetup(w, seed)
			if err != nil {
				return fail(err)
			}
			setupS = append(setupS, s)
			// Collect the set-up's garbage now, so that it is not
			// collected inside some later step block.
			runtime.GC()
		}
	}
	fl.close()
	if err := inst.close(); err != nil {
		return fail(err)
	}

	res.Correct = true
	res.Attempted = warmBlocks*w.stepsPerBlock + out.attempted + len(setupS)
	res.Metrics["step_x_floor"] = metricValue{out.stepXFloor(), "ratio"}
	res.Metrics["setup_s"] = metricValue{median(setupS), "s"}
	res.Metrics["peak_rss_MB"] = metricValue{peakRSSMB(), "MB"}

	fmt.Printf("detail blocks=%d setups=%d block_step_p50_us=%.3f block_floor_p50_us=%.3f cpu_us_per_step=%.3f\n",
		len(out.ratio), len(setupS), median(out.step)/1e3, median(out.floor)/1e3, out.cpuNS/1e3/float64(out.attempted))
	return res, nil
}
