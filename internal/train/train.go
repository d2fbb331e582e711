// Package train provides the shared training loop used by every
// experiment: it drives forward/backward passes, toggles per-sample
// capture on second-order update iterations, averages gradients across
// workers, invokes the preconditioner, and records per-epoch metrics and
// wall-clock time. The same loop runs single-process (dist.Local()) and on
// the simulated cluster.
package train

import (
	"bytes"
	"encoding/gob"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/numerics"
	"repro/internal/opt"
	"repro/internal/telemetry"
)

// Config holds the training hyperparameters.
type Config struct {
	Epochs      int
	BatchSize   int // per worker
	LR          opt.LRSchedule
	Momentum    float64
	WeightDecay float64
	// UpdateFreq is the second-order refresh period in iterations
	// (ignored for first-order methods).
	UpdateFreq int
	// Damping is the preconditioner damping α.
	Damping float64
	// Seed drives weight init, batch order, and stochastic reductions.
	Seed uint64
	// Adam switches the inner optimizer from momentum-SGD to ADAM.
	Adam bool
	// EvalEvery controls how often (in epochs) the test metric runs; 0
	// means every epoch.
	EvalEvery int
	// KLClip bounds the second-order update via the KL trust region used
	// by KAISA and the HyLo artifact: the preconditioned gradient is
	// scaled by ν = min(1, sqrt(κ / (lr² · Σ ĝᵀg))). 0 selects the
	// standard default of 0.001; set negative to disable.
	KLClip float64
	// Augment, when non-nil, builds a per-worker training-batch augmenter
	// (random flips/crops); evaluation always uses raw data.
	Augment func(rng *mat.RNG) *data.Augmenter
	// Patience stops training after this many consecutive epochs without
	// improvement of the test metric (0 disables early stopping). In
	// distributed runs the stop decision is made by rank 0 and shared
	// through a collective so all workers exit together.
	Patience int
	// MaxGradNorm clips the global gradient norm before the (pre-)
	// conditioning step when positive.
	MaxGradNorm float64
	// AdaptDamping enables Levenberg-Marquardt damping adjustment between
	// epochs for preconditioners that support it (HyLo): damping shrinks
	// while the epoch loss improves and grows when it regresses. Every
	// worker sees the same (all-reduced) loss, so replicas stay in sync.
	AdaptDamping bool
	// OnEpoch, when non-nil, is invoked on rank 0 after every epoch with
	// that epoch's statistics — the live-progress hook the job server uses
	// for status endpoints and per-job JSONL telemetry. It runs on the
	// training goroutine; keep it cheap.
	OnEpoch func(EpochStat)
}

// dampable is implemented by preconditioners whose damping the trainer may
// adjust (HyLo).
type dampable interface {
	SetDamping(alpha float64)
	CurrentDamping() float64
}

// Task couples a loss with an evaluation metric.
type Task struct {
	Loss nn.Loss
	// Eval returns the scalar quality metric (accuracy, Dice, ...).
	Eval func(logits *mat.Dense, tgt nn.Target) float64
}

// Classification returns the cross-entropy + accuracy task.
func Classification() Task {
	return Task{
		Loss: nn.SoftmaxCrossEntropy{},
		Eval: func(logits *mat.Dense, tgt nn.Target) float64 {
			return nn.Accuracy(logits, tgt.Labels)
		},
	}
}

// Segmentation returns the BCE+Dice loss with Dice-score evaluation.
func Segmentation() Task {
	return Task{
		Loss: nn.BCEDice{DiceWeight: 1},
		Eval: func(logits *mat.Dense, tgt nn.Target) float64 {
			return nn.DiceScore(logits, tgt.Dense, 0.5)
		},
	}
}

// PrecondFactory builds a preconditioner for a freshly constructed network
// replica; nil factories select a first-order method.
type PrecondFactory func(net *nn.Network, comm dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner

// EpochAware is implemented by preconditioners (HyLo) that adapt at epoch
// boundaries.
type EpochAware interface {
	OnEpochStart(epoch int, lrDecayed bool)
}

// EpochStat records per-epoch progress.
type EpochStat struct {
	Epoch     int
	TrainLoss float64
	Metric    float64       // test accuracy or Dice
	Elapsed   time.Duration // cumulative wall time at epoch end
}

// Result aggregates a training run.
type Result struct {
	Method    string
	Stats     []EpochStat
	Timeline  *dist.Timeline
	FinalLoss float64
	Best      float64 // best test metric seen
	// TimeToTarget is the cumulative time at which the target metric was
	// first reached (zero if never).
	TimeToTarget time.Duration
	// StateBytes reports optimizer+preconditioner state (Table IV).
	StateBytes int
	// EpochModes records HyLo's per-epoch KID/KIS choice when applicable.
	EpochModes []string
}

// Run trains buildNet on the train set with the given method and returns
// per-epoch statistics evaluated on the test set. target is the metric at
// which TimeToTarget stops (pass 0 to disable). makePre may be nil.
func Run(cfg Config, buildNet func(rng *mat.RNG) *nn.Network,
	trainSet, testSet *data.Dataset, task Task,
	makePre PrecondFactory, target float64) Result {

	tl := dist.NewTimeline()
	var res Result
	runWorker(dist.Local(), cfg, buildNet, trainSet, testSet, task, makePre, target, tl, &res, nil)
	return res
}

// RunDistributed trains on a simulated cluster of p workers with
// data-parallel sharding. Results are collected on rank 0.
func RunDistributed(p int, cfg Config, buildNet func(rng *mat.RNG) *nn.Network,
	trainSet, testSet *data.Dataset, task Task,
	makePre PrecondFactory, target float64) Result {

	cluster := dist.NewCluster(p)
	tl := dist.NewTimeline()
	var res Result
	cluster.Run(func(w *dist.Worker) {
		if w.Rank == 0 {
			runWorker(w, cfg, buildNet, trainSet, testSet, task, makePre, target, tl, &res, nil)
		} else {
			runWorker(w, cfg, buildNet, trainSet, testSet, task, makePre, target, tl, nil, nil)
		}
	})
	return res
}

// workerRun carries the fault-tolerance plumbing for one worker launch:
// the checkpoint manager and cadence, and the snapshot to resume from
// (nil = fresh start). A nil *workerRun disables checkpointing entirely —
// the plain Run/RunDistributed entry points pass nil and are unchanged.
type workerRun struct {
	mgr    *ckpt.Manager
	every  int // epochs between checkpoints
	resume *ckpt.Snapshot
	// cancel, when non-nil, requests cooperative cancellation: observed at
	// epoch boundaries, agreed on collectively (every rank contributes its
	// local observation to an all-reduce, so replicas break together), and
	// answered with a forced checkpoint so the run is resumable.
	cancel <-chan struct{}
	// cancelled is set (shared across ranks) when the loop exited early on
	// a cancellation request rather than running to completion.
	cancelled *atomic.Bool
}

// trainerState is the rank-independent trainer-loop state (the checkpoint
// Trainer section): everything identical across replicas — model weights,
// epoch/step cursors, the batch-order iterator, early-stopping and damping
// bookkeeping, and the rank-0 result history. Rank 0 writes it; every rank
// restores from it.
type trainerState struct {
	Epoch, Step  int
	Net          []byte // nn.SaveCheckpoint payload (replicated weights)
	Iter         data.IteratorState
	BestMetric   float64
	Stale        int
	Stats        []EpochStat
	Best         float64
	TimeToTarget time.Duration
	FinalLoss    float64
	AdapterPrev  float64
	AdapterSeen  bool
	Elapsed      time.Duration
}

// rngSaver adapts a trainer-owned RNG stream to the ckpt.StateSaver
// contract so it rides in the per-rank checkpoint sections.
type rngSaver struct {
	key string
	rng *mat.RNG
}

func (s rngSaver) StateKey() string { return s.key }

func (s rngSaver) SaveState() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s.rng.State()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (s rngSaver) LoadState(b []byte) error {
	var st mat.RNGState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return err
	}
	s.rng.SetState(st)
	return nil
}

// gatherRankSections collects every rank's encoded section bundle on all
// workers (rank 0 writes the file). The gather deliberately bypasses any
// chaos wrapper — checkpoint trafficking is control plane; a bit-flip
// injector corrupting the payload before the CRC is computed would bake
// the corruption into a "valid" snapshot.
func gatherRankSections(comm dist.Comm, local []byte) [][]byte {
	if g, ok := dist.AsByteGatherer(comm); ok {
		return g.AllGatherBytes(local)
	}
	return [][]byte{local}
}

func runWorker(comm dist.Comm, cfg Config, buildNet func(rng *mat.RNG) *nn.Network,
	trainSet, testSet *data.Dataset, task Task,
	makePre PrecondFactory, target float64, tl *dist.Timeline, res *Result, run *workerRun) {

	// Identical seeds across workers → identical replicas; the sampling
	// RNG is rank-offset so KIS draws differ per worker.
	initRNG := mat.NewRNG(cfg.Seed)
	net := buildNet(initRNG)
	batchRNG := mat.NewRNG(cfg.Seed + 1)
	sampleRNG := mat.NewRNG(cfg.Seed + 17*uint64(comm.ID()) + 2)

	params := net.Params()
	var optimizer opt.Optimizer
	if cfg.Adam {
		optimizer = opt.NewAdam(params, cfg.LR.Base, cfg.WeightDecay)
	} else {
		optimizer = opt.NewSGD(params, cfg.LR.Base, cfg.Momentum, cfg.WeightDecay)
	}
	var pre opt.Preconditioner
	if makePre != nil {
		pre = makePre(net, comm, tl, sampleRNG)
	}
	var aug *data.Augmenter
	if cfg.Augment != nil {
		aug = cfg.Augment(mat.NewRNG(cfg.Seed + 31*uint64(comm.ID()) + 5))
	}

	p := comm.Size()
	globalBS := cfg.BatchSize * p
	it := data.NewBatchIterator(batchRNG, trainSet.Len(), min(globalBS, trainSet.Len()))
	stepsPerEpoch := it.BatchesPerEpoch()
	updateFreq := cfg.UpdateFreq
	if updateFreq <= 0 {
		updateFreq = 1
	}

	start := time.Now()
	step := 0
	bestMetric := 0.0
	stale := 0
	var adapter *core.DampingAdapter
	if cfg.AdaptDamping {
		adapter = &core.DampingAdapter{Min: cfg.Damping / 100, Max: cfg.Damping * 100}
	}
	rank := comm.ID()

	// Per-rank checkpoint sections: optimizer buffers, preconditioner state
	// (when the method implements StateSaver), and the rank-offset RNG
	// streams. sampleRNG is restored here — after the preconditioner was
	// built — because HyLo aliases the same RNG object.
	savers := []ckpt.StateSaver{rngSaver{key: "rng/sample", rng: sampleRNG}}
	if s, ok := optimizer.(ckpt.StateSaver); ok {
		savers = append(savers, s)
	}
	var preSaver ckpt.StateSaver
	if s, ok := pre.(ckpt.StateSaver); ok {
		preSaver = s
		savers = append(savers, s)
	}
	if aug != nil {
		savers = append(savers, rngSaver{key: "rng/aug", rng: aug.RNG()})
	}

	startEpoch := 0
	// forceUpdate schedules a second-order refresh on the first resumed
	// step when the preconditioner's state did not survive the restore
	// (method without a StateSaver, or a shrunk cluster dropping a rank's
	// section) — stale-factor-free resumption at the cost of determinism.
	forceUpdate := false
	if run != nil && run.resume != nil {
		snap := run.resume
		var ts trainerState
		if err := gob.NewDecoder(bytes.NewReader(snap.Trainer)).Decode(&ts); err == nil {
			startEpoch = ts.Epoch + 1
			step = ts.Step
			if len(ts.Net) > 0 {
				if err := net.LoadCheckpoint(bytes.NewReader(ts.Net)); err != nil {
					telemetry.IncCounter(telemetry.MetricCkptErrors, 1)
				}
			}
			it.Restore(ts.Iter)
			bestMetric, stale = ts.BestMetric, ts.Stale
			start = time.Now().Add(-ts.Elapsed)
			if adapter != nil && ts.AdapterSeen {
				adapter.Restore(ts.AdapterPrev, true)
			}
			if res != nil {
				res.Stats = append([]EpochStat(nil), ts.Stats...)
				res.Best = ts.Best
				res.TimeToTarget = ts.TimeToTarget
				res.FinalLoss = ts.FinalLoss
			}
		} else {
			telemetry.IncCounter(telemetry.MetricCkptErrors, 1)
		}
		preRestored := false
		if rank < len(snap.Ranks) && len(snap.Ranks[rank]) > 0 {
			if sections, err := ckpt.DecodeSections(snap.Ranks[rank]); err == nil {
				for _, s := range savers {
					ok, err := ckpt.LoadInto(sections, s)
					if err != nil {
						telemetry.IncCounter(telemetry.MetricCkptErrors, 1)
					} else if ok && s == preSaver {
						preRestored = true
					}
				}
			}
		}
		if pre != nil && !preRestored {
			forceUpdate = true
		}
	}
	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		endEpoch := telemetry.Span("epoch", rank,
			telemetry.Label{Key: "epoch", Value: strconv.Itoa(epoch)})
		if rank == 0 {
			telemetry.SetGauge(telemetry.MetricEpoch, float64(epoch))
		}
		lr := cfg.LR.At(epoch)
		optimizer.SetLR(lr)
		if ea, ok := pre.(EpochAware); ok {
			ea.OnEpochStart(epoch, cfg.LR.DecaysAt(epoch))
		}
		var lossSum float64
		for b := 0; b < stepsPerEpoch; b++ {
			// Scheduled fault injection observes step boundaries here.
			if st, ok := comm.(dist.Stepper); ok {
				st.OnStep(step)
			}
			endIter := telemetry.Span("iteration", rank,
				telemetry.Label{Key: "epoch", Value: strconv.Itoa(epoch)})
			globalIdx := it.Next()
			// Shard: each worker takes its contiguous slice; the trailing
			// remainder goes to the last rank (the ReduceScatterRows
			// convention), so no sample is silently dropped.
			per := len(globalIdx) / p
			lo := rank * per
			hi := lo + per
			if rank == p-1 {
				hi = len(globalIdx)
			}
			localIdx := globalIdx[lo:hi]
			// With uneven shards, each worker's loss/gradient is a mean
			// over a different sample count; weighting by
			// len(local)·P/len(global) before the 1/P average makes the
			// result exactly the full-batch mean.
			wgt := float64(len(localIdx)) * float64(p) / float64(len(globalIdx))
			x, tgt := trainSet.Batch(localIdx)
			if aug != nil {
				x = aug.Apply(x)
			}

			isUpdate := pre != nil && (step%updateFreq == 0 || forceUpdate)
			net.SetCapture(isUpdate)
			net.ZeroGrad()
			out := net.Forward(x, true)
			loss, g := task.Loss.Forward(out, tgt)
			net.Backward(g)
			if wgt != 1 {
				loss *= wgt
				for _, prm := range params {
					prm.Grad.Scale(wgt)
				}
			}

			// Average gradients across workers (standard data parallelism).
			if p > 1 {
				for _, prm := range params {
					avg := comm.AllReduceMat(prm.Grad)
					avg.Scale(1 / float64(p))
					prm.Grad.CopyFrom(avg)
				}
				loss = comm.AllReduceScalar(loss) / float64(p)
			}

			// Non-finite guard: a diverged loss or gradient would poison
			// the curvature estimates and every parameter it touches. Skip
			// the preconditioned update, zero the offending entries, and
			// fall back to a plain first-order step. The reduced loss and
			// gradients are bitwise identical across ranks, so every
			// worker takes the same branch and collective sequences stay
			// matched.
			if !allFinite(loss, params) {
				telemetry.IncCounter(telemetry.MetricNonfiniteSkips, 1)
				numerics.RecordFallback("train.step", numerics.RungIdentity,
					"non-finite loss or gradient: plain first-order step")
				if scrubbed := sanitizeGrads(params); scrubbed > 0 {
					numerics.AddScrubs(scrubbed)
				}
				if cfg.MaxGradNorm > 0 {
					opt.ClipGradNorm(params, cfg.MaxGradNorm)
				}
				optimizer.Step()
				step++
				endIter()
				continue
			}
			if isUpdate {
				forceUpdate = false
			}

			if cfg.MaxGradNorm > 0 {
				opt.ClipGradNorm(params, cfg.MaxGradNorm)
			}
			if isUpdate {
				pre.Update()
			}
			if pre != nil {
				var raw []*mat.Dense
				if cfg.KLClip >= 0 {
					raw = make([]*mat.Dense, len(params))
					for i, prm := range params {
						raw[i] = prm.Grad.Clone()
					}
				}
				pre.Precondition()
				if cfg.KLClip >= 0 {
					klClip := cfg.KLClip
					if klClip == 0 {
						klClip = 0.001
					}
					applyKLClip(params, raw, lr, klClip)
				}
			}
			optimizer.Step()
			lossSum += loss
			step++
			endIter()
			if rank == 0 {
				telemetry.IncCounter(telemetry.MetricTrainIterations, 1)
			}
		}

		if res != nil {
			stat := EpochStat{
				Epoch:     epoch,
				TrainLoss: lossSum / float64(stepsPerEpoch),
				Elapsed:   time.Since(start),
			}
			evalEvery := cfg.EvalEvery
			if evalEvery <= 0 {
				evalEvery = 1
			}
			if epoch%evalEvery == 0 || epoch == cfg.Epochs-1 {
				endEval := telemetry.Span("evaluate", rank,
					telemetry.Label{Key: "epoch", Value: strconv.Itoa(epoch)})
				stat.Metric = Evaluate(net, testSet, task)
				endEval()
			} else if len(res.Stats) > 0 {
				stat.Metric = res.Stats[len(res.Stats)-1].Metric
			}
			telemetry.SetGauge(telemetry.MetricTrainLoss, stat.TrainLoss)
			telemetry.SetGauge(telemetry.MetricTestMetric, stat.Metric)
			res.Stats = append(res.Stats, stat)
			if stat.Metric > res.Best {
				res.Best = stat.Metric
			}
			if target > 0 && res.TimeToTarget == 0 && stat.Metric >= target {
				res.TimeToTarget = stat.Elapsed
			}
			res.FinalLoss = stat.TrainLoss
			if cfg.OnEpoch != nil {
				cfg.OnEpoch(stat)
			}
		}
		// LM damping adjustment from the (identical-across-workers) epoch
		// loss.
		if adapter != nil {
			if dp, ok := pre.(dampable); ok {
				dp.SetDamping(adapter.Observe(dp.CurrentDamping(), lossSum/float64(stepsPerEpoch)))
			}
		}
		// Cooperative cancellation (the job-server path): each rank checks
		// the shared cancel channel locally, then the observations are
		// all-reduced so every replica takes the same branch — a close
		// racing between two ranks' checks can never desynchronize the
		// collective sequence. A cancellation lands as a forced checkpoint
		// below plus a joint early exit; on the final epoch it is moot, so
		// the (epoch-consistent) guard skips the extra collective there.
		cancelNow := false
		if run != nil && run.cancel != nil && epoch < cfg.Epochs-1 {
			var flag float64
			select {
			case <-run.cancel:
				flag = 1
			default:
			}
			cancelNow = comm.AllReduceScalar(flag) > 0
		}
		// Periodic checkpoint: a collective — every rank contributes its
		// section bundle, rank 0 assembles and atomically publishes the
		// snapshot. Failures are counted and tolerated; a missed
		// checkpoint costs recovery granularity, not the run. A
		// cancellation forces one off-cadence so the run stays resumable.
		if run != nil && run.mgr != nil && run.every > 0 && (cancelNow || (epoch+1)%run.every == 0) {
			local, err := encodeRankSections(savers)
			if err != nil {
				telemetry.IncCounter(telemetry.MetricCkptErrors, 1)
				local = nil // still join the gather: it is a collective
			}
			ranks := gatherRankSections(comm, local)
			if res != nil {
				ts := trainerState{
					Epoch:        epoch,
					Step:         step,
					Iter:         it.State(),
					BestMetric:   bestMetric,
					Stale:        stale,
					Stats:        res.Stats,
					Best:         res.Best,
					TimeToTarget: res.TimeToTarget,
					FinalLoss:    res.FinalLoss,
					Elapsed:      time.Since(start),
				}
				var netBuf bytes.Buffer
				if err := net.SaveCheckpoint(&netBuf); err == nil {
					ts.Net = netBuf.Bytes()
				}
				if adapter != nil {
					ts.AdapterPrev, ts.AdapterSeen = adapter.State()
				}
				var tb bytes.Buffer
				if err := gob.NewEncoder(&tb).Encode(ts); err != nil {
					telemetry.IncCounter(telemetry.MetricCkptErrors, 1)
				} else if _, err := run.mgr.Save(&ckpt.Snapshot{
					Epoch:   epoch,
					Step:    step,
					P:       p,
					Trainer: tb.Bytes(),
					Ranks:   ranks,
				}); err != nil {
					telemetry.IncCounter(telemetry.MetricCkptErrors, 1)
				}
			}
		}
		// Keep workers in step at epoch boundaries (rank 0 evaluates).
		if b, ok := dist.AsBarrier(comm); ok {
			b.Barrier()
		}
		endEpoch()
		// Joint early exit on cancellation: the checkpoint above has been
		// published, every rank agreed on cancelNow, so all replicas leave
		// the loop at the same epoch.
		if cancelNow {
			if run.cancelled != nil {
				run.cancelled.Store(true)
			}
			break
		}
		// Early stopping: rank 0 decides, the collective spreads the stop
		// flag so every worker leaves the loop at the same epoch.
		if cfg.Patience > 0 {
			var flag float64
			if res != nil {
				cur := res.Stats[len(res.Stats)-1].Metric
				if cur > bestMetric+1e-12 {
					bestMetric = cur
					stale = 0
				} else {
					stale++
				}
				if stale >= cfg.Patience {
					flag = 1
				}
			}
			if comm.AllReduceScalar(flag) > 0 {
				break
			}
		}
	}

	if res != nil {
		res.Timeline = tl
		name := optimizer.Name()
		res.StateBytes = optimizer.StateBytes()
		if pre != nil {
			name = pre.Name()
			res.StateBytes += pre.StateBytes()
			if mr, ok := pre.(interface{ ModeStrings() []string }); ok {
				res.EpochModes = mr.ModeStrings()
			}
		}
		res.Method = name
	}
}

// encodeRankSections serializes this rank's StateSaver sections into one
// byte bundle for the checkpoint gather.
func encodeRankSections(savers []ckpt.StateSaver) ([]byte, error) {
	sections, err := ckpt.SaveAll(savers...)
	if err != nil {
		return nil, err
	}
	return ckpt.EncodeSections(sections)
}

// allFinite reports whether the reduced loss and every gradient entry are
// finite.
func allFinite(loss float64, params []*nn.Param) bool {
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return false
	}
	for _, p := range params {
		for _, v := range p.Grad.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// sanitizeGrads zeroes non-finite gradient entries so the fallback
// first-order step moves only along the healthy coordinates, returning how
// many entries were scrubbed for the numerics monitor.
func sanitizeGrads(params []*nn.Param) int {
	n := 0
	for _, p := range params {
		n += mat.ScrubNonFinite(p.Grad.Data())
	}
	return n
}

// applyKLClip rescales the preconditioned gradients so that the implied KL
// step lr²·Σ ĝᵀg stays within kappa — the trust-region heuristic every
// production KFAC-family implementation (including KAISA and the HyLo
// artifact) applies to keep natural-gradient steps stable.
func applyKLClip(params []*nn.Param, raw []*mat.Dense, lr, kappa float64) {
	var dot float64
	for i, prm := range params {
		pg, rg := prm.Grad.Data(), raw[i].Data()
		for j := range pg {
			dot += pg[j] * rg[j]
		}
	}
	vFOV := lr * lr * dot
	if vFOV <= kappa || vFOV <= 0 {
		return
	}
	nu := math.Sqrt(kappa / vFOV)
	for _, prm := range params {
		prm.Grad.Scale(nu)
	}
}

// Evaluate computes the task metric over the whole test set in chunks.
func Evaluate(net *nn.Network, testSet *data.Dataset, task Task) float64 {
	const chunk = 256
	n := testSet.Len()
	var sum float64
	var cnt int
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		x, tgt := testSet.Batch(idx)
		out := net.Forward(x, false)
		sum += task.Eval(out, tgt) * float64(hi-lo)
		cnt += hi - lo
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}
