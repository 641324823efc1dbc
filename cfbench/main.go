// Command cfbench is the repository's benchmark. One invocation runs one
// seeded workload for a fixed measured time, checks every output, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of standard output. See README.md for the
// workloads, the metric definitions and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// Concurrency bounds, sized for a 2-CPU host: simulation and service
// workers, and serve-hot's closed-loop clients.
const (
	workers = 2
	clients = 2
)

// setupReps is how many times each workload sets up per invocation;
// setup_s is the median.
const setupReps = 3

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCfg is one invocation's settings.
type runCfg struct {
	seed    int64
	seconds float64
	trace   bool
	// scratch is a private directory for stores; removed on exit.
	scratch string
}

// workloadFunc runs one workload and fills its result. notes collects
// detail for the stamp line (sample counts, check details).
type workloadFunc func(cfg runCfg, notes map[string]any) (result, error)

var workloadFuncs = map[string]workloadFunc{
	"paper-eval":        runPaperEval,
	"sweep-incremental": runSweep,
	"serve-hot":         runServeHot,
}

func main() {
	name := flag.String("workload", "", "workload: paper-eval, sweep-incremental or serve-hot")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()

	fn, ok := workloadFuncs[*name]
	if !ok {
		fatalf("unknown -workload %q", *name)
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fatalf("scratch directory: %v", err)
	}
	cfg := runCfg{seed: *seed, seconds: *seconds, trace: *trace == 1, scratch: scratch}
	notes := map[string]any{}
	res, err := fn(cfg, notes)
	os.RemoveAll(scratch)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	stamp := map[string]any{
		"workload":   *name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     commit(),
		"notes":      notes,
	}
	emit(map[string]any{"stamp": stamp})
	emit(res)
}

// commit is the VCS revision the binary was built from, as the Go
// toolchain stamped it; "unknown" when built outside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encode output: %v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cfbench: "+format+"\n", args...)
	os.Exit(1)
}

// setupMedian runs setup setupReps times, tearing down every instance but
// the last, and returns the last instance with the median set-up time.
func setupMedian[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var cur T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			teardown(cur)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return cur, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		cur = v
	}
	return cur, median(secs), nil
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// allocMB reads the process-wide bytes allocated so far, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}

// subdir makes a fresh directory under the invocation's scratch space.
func (c runCfg) subdir(name string) (string, error) {
	return os.MkdirTemp(c.scratch, filepath.Base(name)+"-")
}
