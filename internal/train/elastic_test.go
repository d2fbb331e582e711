package train

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/telemetry"
)

// statsClose compares two epoch histories ignoring wall-clock fields.
func statsClose(t *testing.T, want, got []EpochStat, tol float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("epoch counts differ: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if math.Abs(want[i].TrainLoss-got[i].TrainLoss) > tol*(1+math.Abs(want[i].TrainLoss)) {
			t.Fatalf("epoch %d: loss %.15f vs %.15f", i, want[i].TrainLoss, got[i].TrainLoss)
		}
		if math.Abs(want[i].Metric-got[i].Metric) > tol {
			t.Fatalf("epoch %d: metric %.15f vs %.15f", i, want[i].Metric, got[i].Metric)
		}
	}
}

// The chaos acceptance test: a worker panic injected mid-training must be
// recovered by RunElastic — reload the last good checkpoint, reset the
// cluster, resume — and, because the checkpoint captures the complete
// trainer/optimizer/preconditioner/RNG state, reach the same per-epoch
// losses and metrics as an uninterrupted run with identical seeds.
func TestElasticRecoveryMatchesUninterrupted(t *testing.T) {
	tr, te := vectorTask(11)
	cfg := baseCfg()
	cfg.Epochs = 6
	cfg.BatchSize = 15 // 2 workers × 15 = global batch 30, 3 steps/epoch
	hylo := precondFactories()["HyLo"]

	ref := RunDistributed(2, cfg, mlpBuilder(12, 3), tr, te, Classification(), hylo, 0)

	// Counters prove the fault actually fired and recovery actually ran —
	// without them a broken injector would make this test pass trivially.
	prev := telemetry.Default()
	telemetry.SetDefault(telemetry.New())
	telemetry.SetEnabled(true)
	defer func() {
		telemetry.SetEnabled(false)
		telemetry.SetDefault(prev)
	}()

	res, err := RunElastic(2, cfg, ElasticConfig{
		Dir:   t.TempDir(),
		Every: 1,
		// 9 steps/epoch: rank 1 dies entering step 19 (epoch 2);
		// checkpoints exist for epochs 0 and 1, so recovery resumes the
		// interrupted epoch 2 from the epoch-1 snapshot.
		Faults: &dist.FaultPlan{Seed: 1, PanicRank: 1, PanicStep: 19},
	}, mlpBuilder(12, 3), tr, te, Classification(), hylo, 0)
	if err != nil {
		t.Fatalf("RunElastic failed to recover: %v", err)
	}
	reg := telemetry.Default().Metrics
	if n := reg.Counter(telemetry.MetricFaultsInjected,
		telemetry.Label{Key: "kind", Value: "panic"}).Value(); n != 1 {
		t.Fatalf("injected panics = %d; want 1", n)
	}
	if n := reg.Counter(telemetry.MetricRecoveries).Value(); n != 1 {
		t.Fatalf("recoveries = %d; want 1", n)
	}
	if reg.Counter(telemetry.MetricCkptRestores).Value() == 0 {
		t.Fatal("recovery did not load a checkpoint")
	}
	statsClose(t, ref.Stats, res.Stats, 1e-12)
	if math.Abs(ref.FinalLoss-res.FinalLoss) > 1e-12 {
		t.Fatalf("final loss: uninterrupted %.15f vs recovered %.15f", ref.FinalLoss, res.FinalLoss)
	}
	if math.Abs(ref.Best-res.Best) > 1e-12 {
		t.Fatalf("best metric: uninterrupted %g vs recovered %g", ref.Best, res.Best)
	}
}

// TestElasticRecoverStepCountsOnce: the recovery step both elastic drivers
// share counts exactly one recovery per failed attempt, under the driver's
// labels, disarms the scheduled panic, and gives up — without counting —
// once the restart budget is spent.
func TestElasticRecoverStepCountsOnce(t *testing.T) {
	prev := telemetry.Default()
	telemetry.SetDefault(telemetry.New())
	telemetry.SetEnabled(true)
	defer func() {
		telemetry.SetEnabled(false)
		telemetry.SetDefault(prev)
	}()

	es, err := newElasticState(ElasticConfig{
		Dir:    t.TempDir(),
		Resume: true,
		Faults: &dist.FaultPlan{Seed: 1, PanicRank: 1, PanicStep: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if es.every != 1 || es.maxRestarts != 3 || es.resume != nil {
		t.Fatalf("defaults: every=%d maxRestarts=%d resume=%v", es.every, es.maxRestarts, es.resume)
	}
	tcp := telemetry.Label{Key: "transport", Value: "tcp"}
	if err := es.recover(0, []error{errors.New("rank 1 died")}, tcp); err != nil {
		t.Fatalf("recover: %v", err)
	}
	reg := telemetry.Default().Metrics
	if n := reg.Counter(telemetry.MetricRecoveries, tcp).Value(); n != 1 {
		t.Fatalf("tcp recoveries = %d; want 1", n)
	}
	if es.plan.PanicStep != -1 {
		t.Fatalf("scheduled panic still armed at step %d", es.plan.PanicStep)
	}
	if es.resume != nil {
		t.Fatal("empty checkpoint dir must restart cold")
	}
	err = es.recover(es.maxRestarts, []error{errors.New("again")}, tcp)
	if err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("exhausted budget: err = %v", err)
	}
	if n := reg.Counter(telemetry.MetricRecoveries, tcp).Value(); n != 1 {
		t.Fatalf("tcp recoveries after giving up = %d; want 1", n)
	}
}

// Deliberate corruption of the newest checkpoint must be caught by the
// checksum at load, quarantined, and resolved by falling back to the
// previous good snapshot — from which the rerun reproduces the
// uninterrupted history exactly.
func TestElasticCorruptedCheckpointFallsBack(t *testing.T) {
	tr, te := vectorTask(12)
	dir := t.TempDir()
	hylo := precondFactories()["HyLo"]

	cfgShort := baseCfg()
	cfgShort.Epochs = 3
	cfgShort.BatchSize = 15
	if _, err := RunElastic(2, cfgShort, ElasticConfig{Dir: dir, Every: 1},
		mlpBuilder(12, 3), tr, te, Classification(), hylo, 0); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("no checkpoints written: %v", err)
	}
	newest := filepath.Join(dir, ents[len(ents)-1].Name())
	b, _ := os.ReadFile(newest)
	b[len(b)-5] ^= 0x20
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}

	cfgFull := cfgShort
	cfgFull.Epochs = 6
	res, err := RunElastic(2, cfgFull, ElasticConfig{Dir: dir, Every: 1, Resume: true},
		mlpBuilder(12, 3), tr, te, Classification(), hylo, 0)
	if err != nil {
		t.Fatalf("resume after corruption failed: %v", err)
	}

	quarantined := false
	ents, _ = os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".corrupt") {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatal("corrupted checkpoint was not quarantined")
	}

	ref := RunDistributed(2, cfgFull, mlpBuilder(12, 3), tr, te, Classification(), hylo, 0)
	statsClose(t, ref.Stats, res.Stats, 1e-12)
}

// Elastic shrink: after a failure with AllowShrink, training resumes on
// P−1 workers from the last checkpoint and still completes every epoch.
func TestElasticShrinkRecovers(t *testing.T) {
	tr, te := vectorTask(13)
	cfg := baseCfg()
	cfg.Epochs = 4
	cfg.BatchSize = 15
	res, err := RunElastic(2, cfg, ElasticConfig{
		Dir:         t.TempDir(),
		Every:       1,
		AllowShrink: true,
		Faults:      &dist.FaultPlan{Seed: 2, PanicRank: 0, PanicStep: 13}, // epoch 1
	}, mlpBuilder(12, 3), tr, te, Classification(), precondFactories()["KFAC"], 0)
	if err != nil {
		t.Fatalf("shrink recovery failed: %v", err)
	}
	if len(res.Stats) != 4 {
		t.Fatalf("stats = %d epochs; want 4", len(res.Stats))
	}
	if res.Stats[3].TrainLoss >= res.Stats[0].TrainLoss {
		t.Fatalf("loss did not decrease across recovery: %g → %g",
			res.Stats[0].TrainLoss, res.Stats[3].TrainLoss)
	}
}

// A failure before the first checkpoint restarts cold instead of erroring.
func TestElasticRestartsColdWithoutCheckpoint(t *testing.T) {
	tr, te := vectorTask(14)
	cfg := baseCfg()
	cfg.Epochs = 2
	cfg.BatchSize = 15
	res, err := RunElastic(2, cfg, ElasticConfig{
		Dir:    t.TempDir(),
		Every:  1,
		Faults: &dist.FaultPlan{Seed: 3, PanicRank: 1, PanicStep: 0},
	}, mlpBuilder(8, 3), tr, te, Classification(), nil, 0)
	if err != nil {
		t.Fatalf("cold restart failed: %v", err)
	}
	if len(res.Stats) != 2 {
		t.Fatalf("stats = %d epochs; want 2", len(res.Stats))
	}
}

// Regression for the sharding remainder drop: when the global batch is not
// divisible by P (here the whole 13-sample set against P=2), the last rank
// must take the remainder and the weighted average must reproduce the
// local full-batch run exactly.
func TestShardingRemainderNotDropped(t *testing.T) {
	full := data.SynthVectors(mat.NewRNG(21), 3, 6, 10, 0.3) // 18 samples
	tr, te := data.Split(mat.NewRNG(22), full, 5.0/18)       // 13 train, 5 test

	cfg := baseCfg()
	cfg.Epochs = 3
	cfg.BatchSize = 13
	local := Run(cfg, mlpBuilder(8, 3), tr, te, Classification(), nil, 0)

	cfgD := cfg
	cfgD.BatchSize = 7 // global 14 > 13 samples → batch 13, shards 6 + 7
	distRes := RunDistributed(2, cfgD, mlpBuilder(8, 3), tr, te, Classification(), nil, 0)

	statsClose(t, local.Stats, distRes.Stats, 1e-9)
}

// A non-finite loss or gradient must not reach the preconditioner or the
// weights: the iteration falls back to a sanitized first-order step and is
// counted, and training carries on with finite parameters.
func TestNonfiniteGuardSkipsAndCounts(t *testing.T) {
	tr, te := vectorTask(15)
	tr.X.Data()[3] = math.NaN() // one poisoned feature touches most batches

	prev := telemetry.Default()
	telemetry.SetDefault(telemetry.New())
	telemetry.SetEnabled(true)
	defer func() {
		telemetry.SetEnabled(false)
		telemetry.SetDefault(prev)
	}()

	cfg := baseCfg()
	cfg.Epochs = 2
	res := Run(cfg, mlpBuilder(8, 3), tr, te, Classification(),
		precondFactories()["HyLo"], 0)

	skips := telemetry.Default().Metrics.Counter(telemetry.MetricNonfiniteSkips).Value()
	if skips == 0 {
		t.Fatal("non-finite iterations were not counted")
	}
	if math.IsNaN(res.FinalLoss) || math.IsInf(res.FinalLoss, 0) {
		t.Fatalf("final loss is non-finite: %v", res.FinalLoss)
	}
	if math.IsNaN(res.Best) {
		t.Fatal("metric is NaN: non-finite state reached the weights")
	}
}
