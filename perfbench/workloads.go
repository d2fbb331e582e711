package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	distnet "repro/internal/dist/net"
	"repro/internal/opt"
	"repro/internal/train"
)

// trainWorkload is one training configuration. Each trial trains it from
// a cold start: Warmup epochs count as set-up, the Timed epochs after
// them are measured. Steps per epoch are a multiple of UpdateFreq, so
// every epoch holds the same number of curvature refreshes.
type trainWorkload struct {
	Model, Optimizer string
	Classes          int
	PerClass         int
	Batch            int // per rank
	Ranks            int // 1: train.Run; 2: two distnet.Procs over loopback TCP
	UpdateFreq       int
	Warmup, Timed    int
	// TrialEstimate is about how long one trial takes on the reference
	// host (README.md); a --seconds longer than the minimum number of
	// trials needs buys more trials.
	TrialEstimate time.Duration
}

// cnnHyLoLocal is the plain single-worker baseline: nn conv/GEMM and the
// KID/KIS factorization do almost all the work and no collective runs.
// 648 training images at batch 128 give 5 steps, one refresh, per epoch.
var cnnHyLoLocal = trainWorkload{
	Model: "3c1f", Optimizer: "hylo", Classes: 8, PerClass: 108,
	Batch: 128, Ranks: 1, UpdateFreq: 5, Warmup: 2, Timed: 26,
	TrialEstimate: 9500 * time.Millisecond,
}

// denseNetKFACTCP is the communication-heavy workload: one all-reduce per
// parameter tensor per step plus the K-FAC factor reductions and inverse
// broadcasts, between two ranks in two Procs over loopback TCP. 324
// training images at 2×32 give 5 steps, one refresh, per epoch.
var denseNetKFACTCP = trainWorkload{
	Model: "densenet", Optimizer: "kfac", Classes: 4, PerClass: 12,
	Batch: 8, Ranks: 2, UpdateFreq: 2, Warmup: 2, Timed: 26,
	TrialEstimate: 8 * time.Second,
}

// trainConfig mirrors hylo-train's defaults for everything the workload
// does not set.
func (w trainWorkload) trainConfig(seed uint64) train.Config {
	return train.Config{
		Epochs: w.Warmup + w.Timed, BatchSize: w.Batch,
		LR:       opt.LRSchedule{Base: 0.03, Gamma: 0.1},
		Momentum: 0.9, UpdateFreq: w.UpdateFreq, Damping: 0.1, Seed: seed,
	}
}

func (w trainWorkload) factory() (train.PrecondFactory, error) {
	return cliutil.PrecondFactory(w.Optimizer, cliutil.PrecondOpts{
		Damping: 0.1, RankFrac: 0.1, Eta: 0.25, IDTol: core.DefaultIDTol,
	})
}

// trialResult is what one training trial measured.
type trialResult struct {
	Res      train.Result
	Target   float64
	Steps    int // steps per epoch
	GlobalBS int
	// Setup is cold start → end of the last warm-up epoch. Its parts are
	// data synthesis, TCP rendezvous, the model and preconditioner build
	// (which happens inside the trainer, so only the traced run times it)
	// and the warm-up epochs.
	Setup, Data, Rendezvous  time.Duration
	Job                      time.Duration // cold start → trainer returned
	EpochEnd                 []time.Time   // rank 0's OnEpoch wall times
	Mallocs, AllocBytes, GCs uint64        // over the timed epochs
	NetRx, NetTx             [2]int64      // per Proc, over the trial
	CkptDir                  string
}

// TimedEpochs returns the wall time of each timed epoch.
func (r *trialResult) TimedEpochs(w trainWorkload) []float64 {
	var out []float64
	for e := w.Warmup; e < len(r.EpochEnd); e++ {
		out = append(out, ms(r.EpochEnd[e].Sub(r.EpochEnd[e-1])))
	}
	return out
}

// TimedSpan is the wall time of all timed epochs together.
func (r *trialResult) TimedSpan(w trainWorkload) time.Duration {
	return r.EpochEnd[len(r.EpochEnd)-1].Sub(r.EpochEnd[w.Warmup-1])
}

// EpochsToTarget is the 1-based count of epochs run when the test metric
// first reached the workload's target, or 0 if it never did.
func (r *trialResult) EpochsToTarget() int {
	for i, st := range r.Res.Stats {
		if st.Metric >= r.Target {
			return i + 1
		}
	}
	return 0
}

// check is the correctness gate of one trial.
func (r *trialResult) check(w trainWorkload) error {
	if got, want := len(r.Res.Stats), w.Warmup+w.Timed; got != want {
		return fmt.Errorf("%d epochs recorded, want %d", got, want)
	}
	for _, st := range r.Res.Stats {
		if math.IsNaN(st.TrainLoss) || math.IsInf(st.TrainLoss, 0) {
			return fmt.Errorf("epoch %d: non-finite loss %v", st.Epoch, st.TrainLoss)
		}
	}
	if r.EpochsToTarget() == 0 {
		return fmt.Errorf("best metric %.4f never reached target %.2f", r.Res.Best, r.Target)
	}
	return nil
}

// runTrial trains w once from a cold start. A non-nil tracer wraps the
// layers, the preconditioner and its Comm; workDir receives checkpoints.
func runTrial(w trainWorkload, seed uint64, tr *tracer, workDir string) (*trialResult, error) {
	out := &trialResult{}
	var ms0, ms1 runtime.MemStats
	cfg := w.trainConfig(seed)
	cfg.OnEpoch = func(st train.EpochStat) {
		now := time.Now()
		out.EpochEnd = append(out.EpochEnd, now)
		switch len(out.EpochEnd) {
		case w.Warmup:
			runtime.ReadMemStats(&ms0)
		case w.Warmup + w.Timed:
			runtime.ReadMemStats(&ms1)
		}
	}
	start := time.Now()

	wl, err := cliutil.BuildWorkload(w.Model, w.Classes, w.PerClass, seed)
	if err != nil {
		return nil, err
	}
	out.Data = time.Since(start)
	out.Target = wl.Target
	out.GlobalBS = w.Batch * w.Ranks
	out.Steps = wl.Train.Len() / out.GlobalBS
	if out.Steps == 0 || out.Steps%w.UpdateFreq != 0 {
		return nil, fmt.Errorf("%d steps per epoch is not a multiple of update frequency %d", out.Steps, w.UpdateFreq)
	}
	pre, err := w.factory()
	if err != nil {
		return nil, err
	}
	build := wl.Build
	if tr != nil {
		build, pre = tr.Build(build), tr.Factory(pre)
	}

	if w.Ranks == 1 {
		out.Res = train.Run(cfg, build, wl.Train, wl.Test, wl.Task, pre, wl.Target)
	} else {
		out.CkptDir = filepath.Join(workDir, "ckpt")
		res, err := runTCP(w, seed, cfg, out, func(proc *distnet.Proc, dir string) (train.Result, error) {
			return train.RunElasticProc(proc, cfg, train.ElasticConfig{Dir: dir, Every: 1},
				build, wl.Train, wl.Test, wl.Task, pre, wl.Target)
		})
		if err != nil {
			return nil, err
		}
		out.Res = res
	}
	out.Job = time.Since(start)
	if len(out.EpochEnd) != w.Warmup+w.Timed {
		return nil, fmt.Errorf("trainer reported %d epochs, want %d", len(out.EpochEnd), w.Warmup+w.Timed)
	}
	out.Setup = out.EpochEnd[w.Warmup-1].Sub(start)
	out.Mallocs = ms1.Mallocs - ms0.Mallocs
	out.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	out.GCs = uint64(ms1.NumGC - ms0.NumGC)
	return out, nil
}

// runTCP forms a two-process-shaped cluster inside this process: a
// coordinator Proc on a loopback listener and a member Proc joining it,
// each hosting one rank, on the default hub topology. run is called once
// per Proc with that Proc's checkpoint directory; rank 0's result is
// returned.
func runTCP(w trainWorkload, seed uint64, cfg train.Config, out *trialResult,
	run func(proc *distnet.Proc, dir string) (train.Result, error)) (train.Result, error) {

	t0 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return train.Result{}, fmt.Errorf("listen: %w", err)
	}
	digest := distnet.ConfigDigestOf("perfbench", w.Model, w.Optimizer, fmt.Sprint(seed, cfg.Epochs))
	ncfg := []distnet.Config{
		{Listener: ln, LocalRanks: 1, WorldSize: w.Ranks, ConfigDigest: digest, Seed: seed},
		{Join: ln.Addr().String(), LocalRanks: 1, WorldSize: w.Ranks, ConfigDigest: digest, Seed: seed},
	}
	procs := make([]*distnet.Proc, len(ncfg))
	errs := make([]error, len(ncfg))
	var wg sync.WaitGroup
	for i := range ncfg {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			procs[i], errs[i] = distnet.Start(ncfg[i])
		}(i)
	}
	wg.Wait()
	defer func() {
		for i := len(procs) - 1; i >= 0; i-- {
			if procs[i] != nil {
				procs[i].Close()
			}
		}
	}()
	for i, err := range errs {
		if err != nil {
			ln.Close()
			return train.Result{}, fmt.Errorf("proc %d start: %w", i, err)
		}
	}
	out.Rendezvous = time.Since(t0)

	results := make([]train.Result, len(procs))
	for i, p := range procs {
		wg.Add(1)
		go func(i int, p *distnet.Proc) {
			defer wg.Done()
			dir := out.CkptDir
			if i > 0 {
				dir = fmt.Sprintf("%s-member%d", out.CkptDir, i)
			}
			results[i], errs[i] = run(p, dir)
		}(i, p)
	}
	wg.Wait()
	for i, p := range procs {
		out.NetRx[i], out.NetTx[i] = p.NetBytes()
	}
	for i, err := range errs {
		if err != nil {
			return train.Result{}, fmt.Errorf("proc %d: %w", i, err)
		}
	}
	for i, p := range procs {
		if p.BaseRank() == 0 {
			return results[i], nil
		}
	}
	return train.Result{}, fmt.Errorf("no proc hosts rank 0")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (files int, bytes int64) {
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				files++
				bytes += info.Size()
			}
		}
		return nil
	})
	return files, bytes
}
