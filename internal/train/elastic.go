package train

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

// ElasticConfig controls the fault-tolerant training driver.
type ElasticConfig struct {
	// Dir is the checkpoint directory.
	Dir string
	// Every is the checkpoint cadence in epochs (default 1).
	Every int
	// Keep bounds retained snapshots (default 3, minimum 2 so corruption
	// of the newest can fall back).
	Keep int
	// Resume loads the latest good snapshot in Dir before the first launch
	// (otherwise existing snapshots are only used after a failure).
	Resume bool
	// MaxRestarts bounds recovery attempts before giving up (default 3).
	MaxRestarts int
	// AllowShrink relaunches on P−1 workers after a failure instead of
	// reusing the full cluster — elastic recovery with re-sharding. Rank
	// sections beyond the new world size are dropped; preconditioners
	// whose state is lost rebuild on the first resumed step.
	AllowShrink bool
	// BarrierTimeout arms the cluster watchdog so a silently hung worker
	// is converted into a recoverable failure (0 disables).
	BarrierTimeout time.Duration
	// Faults, when non-nil and enabled, wraps every worker's communicator
	// in a deterministic chaos injector. The scheduled panic is disabled
	// after the first failure so a recovered run does not re-die at the
	// same step; bit-flip and straggler injection stay active.
	Faults *dist.FaultPlan
}

// ErrCancelled is returned by RunElasticCtx when its context was cancelled
// before training completed: the run stopped cooperatively at an epoch
// boundary after force-writing a checkpoint, so a later launch with
// ElasticConfig.Resume continues it bit-identically. The Result accompanying
// the error holds the statistics accumulated so far.
var ErrCancelled = errors.New("train: run cancelled")

// RunElastic trains like RunDistributed but survives worker failures:
// training checkpoints every Every epochs, and when a worker panics (or
// the barrier watchdog converts a hang), the driver reloads the last good
// snapshot, resets (or shrinks) the cluster, and resumes. It returns the
// final Result and a non-nil error only when recovery is exhausted.
func RunElastic(p int, cfg Config, ec ElasticConfig,
	buildNet func(rng *mat.RNG) *nn.Network,
	trainSet, testSet *data.Dataset, task Task,
	makePre PrecondFactory, target float64) (Result, error) {
	return RunElasticCtx(context.Background(), p, cfg, ec,
		buildNet, trainSet, testSet, task, makePre, target)
}

// RunElasticCtx is RunElastic with cooperative cancellation: when ctx is
// cancelled, every worker observes it at the next epoch boundary (the
// decision is made collectively, so replicas stay in step), a checkpoint is
// force-written, and the call returns ErrCancelled with the partial Result.
// A context that can never be cancelled adds no collectives and leaves the
// training schedule byte-for-byte unchanged.
func RunElasticCtx(ctx context.Context, p int, cfg Config, ec ElasticConfig,
	buildNet func(rng *mat.RNG) *nn.Network,
	trainSet, testSet *data.Dataset, task Task,
	makePre PrecondFactory, target float64) (Result, error) {

	es, err := newElasticState(ec)
	if err != nil {
		return Result{}, err
	}
	cluster := dist.NewCluster(p)
	if ec.BarrierTimeout > 0 {
		cluster.SetBarrierTimeout(ec.BarrierTimeout)
	}
	var cancelled atomic.Bool
	for attempt := 0; ; attempt++ {
		tl := dist.NewTimeline()
		var res Result
		plan, snap := es.plan, es.resume
		errs := cluster.RunWithRecovery(func(w *dist.Worker) {
			var comm dist.Comm = w
			if plan.Enabled() {
				comm = dist.NewFaultInjector(w, plan)
			}
			run := &workerRun{mgr: es.mgr, every: es.every, resume: snap,
				cancel: ctx.Done(), cancelled: &cancelled}
			if w.Rank == 0 {
				runWorker(comm, cfg, buildNet, trainSet, testSet, task, makePre, target, tl, &res, run)
			} else {
				runWorker(comm, cfg, buildNet, trainSet, testSet, task, makePre, target, tl, nil, run)
			}
		})
		if len(errs) == 0 {
			if cancelled.Load() {
				return res, ErrCancelled
			}
			return res, nil
		}
		if err := es.recover(attempt, errs); err != nil {
			return res, err
		}
		// Rebuild the worker pool — either in place or one rank smaller.
		if ec.AllowShrink && p > 1 {
			p--
			cluster = dist.NewCluster(p)
			if ec.BarrierTimeout > 0 {
				cluster.SetBarrierTimeout(ec.BarrierTimeout)
			}
		} else {
			cluster.Reset()
		}
	}
}

// elasticState is what both elastic drivers carry across attempts: the
// checkpoint manager and cadence, the restart budget, the fault plan, and
// the snapshot the next launch resumes from.
type elasticState struct {
	mgr         *ckpt.Manager
	every       int
	maxRestarts int
	plan        dist.FaultPlan
	resume      *ckpt.Snapshot
}

// newElasticState opens the checkpoint directory, applies the Every and
// MaxRestarts defaults, and under ec.Resume loads the latest good
// snapshot (an empty directory is a fresh start).
func newElasticState(ec ElasticConfig) (*elasticState, error) {
	mgr, err := ckpt.NewManager(ec.Dir, ec.Keep)
	if err != nil {
		return nil, fmt.Errorf("train: checkpoint dir: %w", err)
	}
	es := &elasticState{mgr: mgr, every: ec.Every, maxRestarts: ec.MaxRestarts,
		plan: dist.FaultPlan{PanicStep: -1}}
	if es.every <= 0 {
		es.every = 1
	}
	if es.maxRestarts <= 0 {
		es.maxRestarts = 3
	}
	if ec.Faults != nil {
		es.plan = *ec.Faults
	}
	if ec.Resume {
		if err := es.reload(); err != nil {
			return nil, err
		}
	}
	return es, nil
}

// reload points resume at the latest good snapshot (corrupt files fall
// back inside LoadLatest); none at all means a cold start.
func (es *elasticState) reload() error {
	snap, _, err := es.mgr.LoadLatest()
	switch {
	case err == nil:
		es.resume = snap
	case errors.Is(err, ckpt.ErrNoCheckpoint):
		es.resume = nil
	default:
		return err
	}
	return nil
}

// recover is the step after failed attempt number attempt: once the
// restart budget is spent it returns the give-up error; otherwise it
// counts the recovery (MetricRecoveries, tagged with labels), marks it on
// the trace, disarms the one-shot scheduled panic so the relaunch does not
// re-die at the same step, and reloads the last good snapshot.
func (es *elasticState) recover(attempt int, errs []error, labels ...telemetry.Label) error {
	if attempt >= es.maxRestarts {
		return fmt.Errorf("train: giving up after %d restarts: %v", attempt, errs)
	}
	telemetry.IncCounter(telemetry.MetricRecoveries, 1, labels...)
	telemetry.Instant("train_recovery", 0, append([]telemetry.Label{
		{Key: "attempt", Value: fmt.Sprint(attempt + 1)},
		{Key: "error", Value: fmt.Sprint(errs[0])},
	}, labels...)...)
	es.plan.PanicStep = -1
	return es.reload()
}
