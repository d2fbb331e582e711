package train

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/dist"
	distnet "repro/internal/dist/net"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

// RunElasticProc is RunElastic over a multi-process TCP cluster: the same
// checkpoint-reload-resume recovery loop, but the worker pool is a
// distnet.Proc hosting this OS process's share of the global ranks.
//
// The transport keeps the failure semantics aligned with the in-process
// chaos layer — a dead peer poisons every rank with
// dist.ErrClusterPoisoned — so this driver is structurally the RunElastic
// loop with two substitutions: the cluster reset/shrink step becomes
// Proc.Rejoin (the coordinator reassigns ranks over the survivors), and
// the snapshot handoff becomes Proc.SyncSnapshot (processes share no
// checkpoint directory, so the coordinator's snapshot is broadcast and is
// authoritative — which is also what makes a resumed run bit-identical on
// every process).
//
// Only the process hosting global rank 0 accumulates a meaningful Result;
// the others return a zero Result and nil error on success.
func RunElasticProc(proc *distnet.Proc, cfg Config, ec ElasticConfig,
	buildNet func(rng *mat.RNG) *nn.Network,
	trainSet, testSet *data.Dataset, task Task,
	makePre PrecondFactory, target float64) (Result, error) {

	es, err := newElasticState(ec)
	if err != nil {
		return Result{}, err
	}
	for attempt := 0; ; attempt++ {
		// Generation snapshot agreement: every process offers its local
		// candidate, everyone resumes from the coordinator's. A process with
		// no checkpoint directory contents (a fresh joiner, a member that
		// never hosted rank 0) starts from whatever the coordinator has.
		es.resume, err = syncSnapshot(proc, es.resume)
		if err != nil {
			return Result{}, err
		}

		tl := dist.NewTimeline()
		var res Result
		plan, snap := es.plan, es.resume
		hostsRank0 := proc.BaseRank() == 0
		errs := proc.Run(func(c dist.Comm) {
			comm := c
			if plan.Enabled() {
				comm = dist.NewFaultInjector(c, plan)
			}
			run := &workerRun{mgr: es.mgr, every: es.every, resume: snap}
			if c.ID() == 0 {
				runWorker(comm, cfg, buildNet, trainSet, testSet, task, makePre, target, tl, &res, run)
			} else {
				runWorker(comm, cfg, buildNet, trainSet, testSet, task, makePre, target, tl, nil, run)
			}
		})
		if len(errs) == 0 {
			if !hostsRank0 {
				res = Result{}
			}
			return res, nil
		}
		if err := es.recover(attempt, errs, telemetry.Label{Key: "transport", Value: "tcp"}); err != nil {
			return res, err
		}
		// Rendezvous for the next generation: the coordinator gathers the
		// survivors, reassigns contiguous ranks, and the world shrinks by
		// the dead process's share. A process that cannot rejoin (it was
		// the one that died organically, or the window expired) surfaces
		// the error to its driver.
		if err := proc.Rejoin(); err != nil {
			return res, fmt.Errorf("train: rejoin after failure: %w", err)
		}
	}
}

// syncSnapshot agrees on the generation's resume snapshot across all
// processes: gob-encode the local candidate, exchange through the
// coordinator, decode the authoritative copy. An empty blob means a cold
// start everywhere.
func syncSnapshot(proc *distnet.Proc, local *ckpt.Snapshot) (*ckpt.Snapshot, error) {
	var buf bytes.Buffer
	if local != nil {
		if err := gob.NewEncoder(&buf).Encode(local); err != nil {
			return nil, fmt.Errorf("train: encode snapshot for sync: %w", err)
		}
	}
	agreed, err := proc.SyncSnapshot(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("train: snapshot sync: %w", err)
	}
	if len(agreed) == 0 {
		return nil, nil
	}
	snap := &ckpt.Snapshot{}
	if err := gob.NewDecoder(bytes.NewReader(agreed)).Decode(snap); err != nil {
		return nil, fmt.Errorf("train: decode synced snapshot: %w", err)
	}
	return snap, nil
}
