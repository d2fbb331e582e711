package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/mat"
	"repro/internal/sched"
)

// tailBeyond is the number of samples that must lie above a reported tail
// percentile: a p90 read from fewer than 100 samples is decided by a
// handful of outliers and does not repeat from run to run.
const tailBeyond = 10

// samplesForTail returns how many samples a run needs before percentile p
// (0 < p < 100) has tailBeyond samples above it.
func samplesForTail(p int) int {
	return (tailBeyond*100 + 100 - p - 1) / (100 - p)
}

// percentile returns the nearest-rank p-th percentile of xs (p in
// (0, 100]); xs is not modified. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the 50th percentile by the nearest-rank rule.
func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// div returns a/b, or 0 when b is 0 (a layer absent from a workload).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapSampler records the peak of the live-heap reading from
// runtime/metrics (no stop-the-world, unlike runtime.ReadMemStats) every
// few milliseconds until stopped. Lap splits the run into laps, one per
// trial or session, each with its own peak.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.peak = max(h.peak, s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Lap returns the peak in MiB since the previous Lap (or the start) and
// starts a new lap.
func (h *heapSampler) Lap() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return float64(p) / (1 << 20)
}

// Stop ends sampling and waits for the sampler to exit.
func (h *heapSampler) Stop() {
	close(h.stop)
	<-h.done
}

// cpuTimes reads the aggregate "cpu" line of /proc/stat: the steal
// column and the sum of all columns, in clock ticks.
func cpuTimes() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (columns 9, 10) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// machine is the stanza printed with every result: the facts a timing
// depends on that the benchmark does not control.
type machine struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	SchedWork  int     `json:"sched_workers"`
	FMAKernels bool    `json:"fma_kernels"`
	StealShare float64 `json:"steal_share"`
	// KernelFlag is set when the init-time kernel race picked the fused
	// multiply-add family. It is the rare outcome on the reference host
	// (mul+add won every start there), and it changes both the speed and
	// the loss bits, so such a run is not comparable with the others.
	KernelFlag string `json:"kernel_flag,omitempty"`
}

// machineProbe captures /proc/stat at the start of a run so the stanza
// can report the steal share over the run.
type machineProbe struct {
	steal, total uint64
	ok           bool
}

func probeMachine() machineProbe {
	s, t, ok := cpuTimes()
	return machineProbe{steal: s, total: t, ok: ok}
}

func (p machineProbe) finish() machine {
	m := machine{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		SchedWork:  sched.Workers(),
		FMAKernels: mat.FMAKernels(),
		StealShare: -1,
	}
	if s, t, ok := cpuTimes(); ok && p.ok && t > p.total {
		m.StealShare = float64(s-p.steal) / float64(t-p.total)
	}
	if m.FMAKernels {
		m.KernelFlag = "fma kernels selected: speed and loss bits differ from mul+add runs"
	}
	return m
}
