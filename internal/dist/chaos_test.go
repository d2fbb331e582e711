package dist

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mat"
)

// A scheduled panic must fire exactly on the configured rank and step and
// poison the survivors, like any organic worker death.
func TestFaultInjectorScheduledPanic(t *testing.T) {
	c := NewCluster(3)
	plan := FaultPlan{Seed: 7, PanicRank: 1, PanicStep: 2}
	errs := c.RunWithRecovery(func(w *Worker) {
		f := NewFaultInjector(w, plan)
		for step := 0; step < 5; step++ {
			f.OnStep(step)
			m := mat.NewDense(1, 1)
			m.Fill(float64(step))
			f.AllReduceMat(m)
		}
	})
	if len(errs) != 3 {
		t.Fatalf("errors = %v; want 3 (1 injected + 2 poisoned)", errs)
	}
	var injected int
	for _, err := range errs {
		we := err.(WorkerError)
		if fault, ok := we.Err.(InjectedFault); ok {
			if fault.Rank != 1 || fault.Step != 2 {
				t.Fatalf("fault fired at rank %d step %d; want rank 1 step 2", fault.Rank, fault.Step)
			}
			injected++
		}
	}
	if injected != 1 {
		t.Fatalf("injected faults = %d; want exactly 1", injected)
	}
}

// Bit-flips must corrupt only the exchanged payload (never the caller's
// buffer), be deterministic under a fixed seed, and stay finite (mantissa
// bits only).
func TestFaultInjectorBitFlipDeterministic(t *testing.T) {
	run := func() []float64 {
		c := NewCluster(2)
		out := make([]float64, 2)
		c.Run(func(w *Worker) {
			f := NewFaultInjector(w, FaultPlan{Seed: 99, PanicStep: -1, BitFlipProb: 1})
			m := mat.NewDense(2, 2)
			m.Fill(1)
			sum := f.AllReduceMat(m)
			if m.At(0, 0) != 1 || m.At(1, 1) != 1 {
				t.Error("bit flip mutated the caller's buffer")
			}
			out[w.Rank] = sum.At(0, 0) + sum.At(0, 1) + sum.At(1, 0) + sum.At(1, 1)
		})
		return out
	}
	a, b := run(), run()
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("bit flips not deterministic: %v vs %v", a, b)
	}
	if a[0] == 8 {
		t.Fatal("BitFlipProb=1 produced an uncorrupted sum")
	}
	if math.IsNaN(a[0]) || math.IsInf(a[0], 0) {
		t.Fatalf("mantissa-only flip produced non-finite sum %v", a[0])
	}
}

func TestFaultInjectorStragglerDelays(t *testing.T) {
	c := NewCluster(2)
	start := time.Now()
	c.Run(func(w *Worker) {
		f := NewFaultInjector(w, FaultPlan{
			Seed: 3, PanicStep: -1,
			StragglerProb: 1, StragglerDelay: 20 * time.Millisecond,
		})
		f.AllReduceScalar(1)
	})
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("collective returned in %v; straggler delay not applied", elapsed)
	}
}

// The watchdog must convert a silent hang (one worker never reaches the
// barrier, without panicking) into poisoning so survivors fail loudly.
func TestBarrierWatchdogConvertsHangToPoison(t *testing.T) {
	c := NewCluster(3)
	c.SetBarrierTimeout(50 * time.Millisecond)
	start := time.Now()
	errs := c.RunWithRecovery(func(w *Worker) {
		if w.Rank == 2 {
			// Stalls far past the watchdog without panicking; the others
			// must not wait for it.
			time.Sleep(time.Second)
			return
		}
		w.Barrier()
	})
	if len(errs) != 2 {
		t.Fatalf("errors = %v; want 2 poisoned waiters", errs)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("poisoning took %v; watchdog did not convert the hang", elapsed)
	}
}

// After a failed run, Reset must return the cluster to a usable state:
// collectives work again and the barrier is no longer poisoned.
func TestClusterResetAfterFailure(t *testing.T) {
	c := NewCluster(4)
	errs := c.RunWithRecovery(func(w *Worker) {
		if w.Rank == 0 {
			panic("boom")
		}
		w.Barrier()
	})
	if len(errs) == 0 {
		t.Fatal("expected a failed first run")
	}

	c.Reset()
	var total int64
	errs = c.RunWithRecovery(func(w *Worker) {
		m := mat.NewDense(1, 1)
		m.Fill(1)
		sum := w.AllReduceMat(m)
		atomic.AddInt64(&total, int64(sum.At(0, 0)))
	})
	if len(errs) != 0 {
		t.Fatalf("post-reset run failed: %v", errs)
	}
	if total != 16 {
		t.Fatalf("post-reset reduction total = %d; want 16", total)
	}
}

func TestAsWorkerUnwrapsInjector(t *testing.T) {
	c := NewCluster(2)
	c.Run(func(w *Worker) {
		f := NewFaultInjector(w, FaultPlan{PanicStep: -1})
		got, ok := AsWorker(f)
		if !ok || got != w {
			t.Errorf("AsWorker failed to unwrap injector")
		}
	})
	if _, ok := AsWorker(Local()); ok {
		t.Fatal("AsWorker(Local()) must report false")
	}
}

// The straggler model must be deterministic under a fixed seed and obey
// exact step-time arithmetic, so ablation sweeps are reproducible.
func TestStragglerModelDeterministicAndExact(t *testing.T) {
	a := NewStragglerModel(V100Cluster(8), 0.3, mat.NewRNG(42))
	b := NewStragglerModel(V100Cluster(8), 0.3, mat.NewRNG(42))
	for i := range a.Slowdowns {
		if a.Slowdowns[i] != b.Slowdowns[i] {
			t.Fatalf("slowdowns differ at %d under the same seed: %v vs %v",
				i, a.Slowdowns[i], b.Slowdowns[i])
		}
	}
	s := StragglerModel{Base: V100Cluster(3), Slowdowns: []float64{1.0, 1.5, 1.2}}
	if got := s.MaxSlowdown(); got != 1.5 {
		t.Fatalf("MaxSlowdown = %v; want 1.5", got)
	}
	// Compute stretches by the slowest worker; communication is unchanged.
	if got, want := s.StepTime(0.1, 0.02), 0.1*1.5+0.02; got != want {
		t.Fatalf("StepTime = %v; want %v", got, want)
	}
	// Degenerate zero-duration step must not divide by zero.
	zero := StragglerModel{Base: V100Cluster(2), Slowdowns: []float64{1, 1}}
	if e := zero.Efficiency(0, 0); e != 1 {
		t.Fatalf("Efficiency(0,0) = %v; want 1", e)
	}
	// An empty slowdown list (no jitter drawn) means nominal speed.
	none := StragglerModel{Base: V100Cluster(2)}
	if got := none.MaxSlowdown(); got != 1 {
		t.Fatalf("MaxSlowdown with no slowdowns = %v; want 1", got)
	}
}

// ReduceScatterRows with fewer rows than workers: the leading workers get
// zero-row shards and the last worker owns the whole (summed) matrix —
// the same trailing-remainder convention as the data-parallel sharding.
func TestReduceScatterRowsFewerRowsThanWorkers(t *testing.T) {
	const p = 4
	c := NewCluster(p)
	rows := make([]int, p)
	var lastSum float64
	c.Run(func(w *Worker) {
		m := mat.NewDense(2, 3)
		m.Fill(1)
		shard := w.ReduceScatterRows(m)
		rows[w.Rank] = shard.Rows()
		if w.Rank == p-1 {
			for i := 0; i < shard.Rows(); i++ {
				for j := 0; j < shard.Cols(); j++ {
					lastSum += shard.At(i, j)
				}
			}
		}
	})
	for r := 0; r < p-1; r++ {
		if rows[r] != 0 {
			t.Fatalf("rank %d shard has %d rows; want 0", r, rows[r])
		}
	}
	if rows[p-1] != 2 {
		t.Fatalf("last rank shard has %d rows; want all 2", rows[p-1])
	}
	if lastSum != 2*3*p {
		t.Fatalf("last-rank shard sum = %v; want %v", lastSum, 2*3*p)
	}
}

// Degenerate-payload injection must corrupt only the exchanged payload
// (never the caller's buffer), target the factor gathers, and apply the
// exact configured degeneracy per kind.
func TestFaultInjectorDegeneratePayloads(t *testing.T) {
	gatherWith := func(kind string) [][]*mat.Dense {
		c := NewCluster(2)
		out := make([][]*mat.Dense, 2)
		c.Run(func(w *Worker) {
			f := NewFaultInjector(w, FaultPlan{
				Seed: 5, PanicStep: -1,
				DegenerateKind: kind, DegenerateProb: 1,
			})
			m := mat.NewDense(3, 2)
			for i := 0; i < 3; i++ {
				for j := 0; j < 2; j++ {
					m.Set(i, j, float64(1+i*2+j))
				}
			}
			got := f.AllGatherMat(m)
			if m.At(0, 0) != 1 || m.At(2, 1) != 6 {
				t.Error("degenerate injection mutated the caller's buffer")
			}
			out[w.Rank] = got
		})
		return out
	}

	for _, payloads := range gatherWith("dup") {
		for _, p := range payloads {
			for i := 1; i < p.Rows(); i++ {
				for j := 0; j < p.Cols(); j++ {
					if p.At(i, j) != p.At(0, j) {
						t.Fatalf("dup: row %d differs from row 0", i)
					}
				}
			}
		}
	}
	for _, payloads := range gatherWith("zero") {
		for _, p := range payloads {
			for _, v := range p.Data() {
				if v != 0 {
					t.Fatal("zero: non-zero entry in gathered payload")
				}
			}
		}
	}
	for _, payloads := range gatherWith("huge") {
		for _, p := range payloads {
			if p.At(0, 0) != 1e150 {
				t.Fatalf("huge: entry = %g; want 1e150", p.At(0, 0))
			}
		}
	}
	// Unknown kinds pass the payload through untouched.
	for _, payloads := range gatherWith("gremlin") {
		for _, p := range payloads {
			if p.At(0, 0) != 1 {
				t.Fatal("unknown kind corrupted the payload")
			}
		}
	}
}

// Degenerate injection draws must be deterministic under a fixed seed so
// chaos runs are reproducible.
func TestFaultInjectorDegenerateDeterministic(t *testing.T) {
	run := func() []float64 {
		c := NewCluster(2)
		out := make([]float64, 2)
		c.Run(func(w *Worker) {
			f := NewFaultInjector(w, FaultPlan{
				Seed: 77, PanicStep: -1,
				DegenerateKind: "zero", DegenerateProb: 0.5,
			})
			var sum float64
			for step := 0; step < 8; step++ {
				m := mat.NewDense(2, 2)
				m.Fill(float64(step + 1))
				for _, p := range f.AllGatherMat(m) {
					sum += p.At(0, 0)
				}
			}
			out[w.Rank] = sum
		})
		return out
	}
	a, b := run(), run()
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("degenerate draws not deterministic: %v vs %v", a, b)
	}
}

// A degenerate-only plan must report itself enabled so the elastic driver
// installs the injector.
func TestFaultPlanDegenerateEnabled(t *testing.T) {
	p := FaultPlan{PanicStep: -1, DegenerateKind: "dup", DegenerateProb: 0.1}
	if !p.Enabled() {
		t.Fatal("degenerate-only plan reports disabled")
	}
	if (FaultPlan{PanicStep: -1, DegenerateKind: "dup"}).Enabled() {
		t.Fatal("zero-probability degenerate plan reports enabled")
	}
	if (FaultPlan{PanicStep: -1, DegenerateProb: 1}).Enabled() {
		t.Fatal("kindless degenerate plan reports enabled")
	}
}
