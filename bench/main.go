// Command bench is the repository's benchmark: one closed-loop coupling
// per workload, every step a round trip, timing reported as a ratio to a
// floor measured in the same process in interleaved blocks. See README.md
// in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// hostRecord says where and on what a result was measured.
type hostRecord struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Start      string  `json:"start"`
	WallS      float64 `json:"wall_s"`
}

func newHostRecord(workload string, seed uint64, start time.Time) hostRecord {
	h := hostRecord{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Kernel: "unknown",
		Workload: workload, Seed: seed, Start: start.UTC().Format(time.RFC3339),
	}
	// The commit is stamped by the go tool when the build happens inside
	// a git work tree; elsewhere it stays unknown.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	return h
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, the contract with the
// driver.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: bulk_tcp, small_tcp, resize_inproc or prmi_tcp")
	seed := flag.Uint64("seed", 1, "seed of the source-array contents")
	seconds := flag.Float64("seconds", 30, "length of the measured phase")
	trace := flag.Int("trace", 0, "0: gated pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	out := flag.String("out", "bench/out", "directory for trace files")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	// A coupling that wedges must not hang the driver: the contract
	// allows 180 s per run.
	time.AfterFunc(budget+120*time.Second, func() {
		fmt.Fprintln(os.Stderr, "bench: watchdog: run did not finish; a step timed out")
		os.Exit(3)
	})

	start := time.Now()
	var res result
	var spans []span
	var err error
	defs := endToEnd
	if *trace == 0 {
		res, err = gatedPass(w, *seed, budget)
	} else {
		defs = perLayer
		res, spans, err = tracedPass(w, *seed, budget)
	}
	host := newHostRecord(w.name, *seed, start)
	host.WallS = time.Since(start).Seconds()
	if err == nil && *trace != 0 {
		err = writeTrace(*out, w.name, host, spans)
	}
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)
	for _, d := range defs {
		if v, ok := res.Metrics[d.Name]; ok {
			fmt.Printf("%-32s %16.6g %-6s (%s is better)\n", d.Name, v.Value, v.Unit, d.Better)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		res.Correct = false
		if res.Failed == 0 {
			res.Failed = 1
		}
		if res.Attempted < res.Failed {
			res.Attempted = res.Failed
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if err != nil || res.Failed > 0 {
		os.Exit(1)
	}
}
