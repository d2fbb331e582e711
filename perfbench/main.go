// Command perfbench is the repository benchmark. It runs one named
// workload from a seed, checks the program's outputs, and prints its
// metrics as the last line of standard output:
//
//	perfbench --workload cnn-hylo-local --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run;
// with --trace 1 it runs the same seed untraced and then traced (layers,
// preconditioner and its Comm wrapped from outside the program) and
// prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/sched"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's metrics, operation counts and check
// failures.
type report struct {
	result
	problems []string
	// info is printed with the machine stanza: facts about the run that
	// are not metrics.
	info map[string]any
}

func newReport() *report {
	return &report{result: result{Correct: true, Metrics: map[string]metric{}}, info: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, trace func(seed uint64, seconds time.Duration, dir string, rep *report) error
}{
	"cnn-hylo-local":    {trainRun(cnnHyLoLocal), trainTrace(cnnHyLoLocal)},
	"densenet-kfac-tcp": {trainRun(denseNetKFACTCP), trainTrace(denseNetKFACTCP)},
	"serve-sngd-jobs":   {serveRun(serveSNGDJobs), serveTrace(serveSNGDJobs)},
}

func main() {
	name := flag.String("workload", "", "workload name: cnn-hylo-local | densenet-kfac-tcp | serve-sngd-jobs")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 25, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of cnn-hylo-local, densenet-kfac-tcp, serve-sngd-jobs), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	// hylo-train's default: stage workers = GOMAXPROCS.
	sched.SetWorkers(runtime.GOMAXPROCS(0))

	dir, err := os.MkdirTemp(".", ".bench_run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: work dir: %v\n", err)
		os.Exit(1)
	}
	dir, _ = filepath.Abs(dir)
	defer os.RemoveAll(dir)

	probe := probeMachine()
	rep := newReport()
	run := wl.run
	if *trace == 1 {
		run = wl.trace
	}
	err = run(*seed, time.Duration(*seconds)*time.Second, dir, rep)
	mach := probe.finish()
	if mach.KernelFlag != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", mach.KernelFlag)
	}
	if err != nil {
		os.RemoveAll(dir)
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if rep.Attempted < 1 {
		rep.Attempted = 1
		rep.fail("no operation was attempted")
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	enc := json.NewEncoder(os.Stdout)
	rep.info["workload"], rep.info["seed"], rep.info["trace"], rep.info["machine"] = *name, *seed, *trace, mach
	enc.Encode(rep.info)
	enc.Encode(rep.result)
}
