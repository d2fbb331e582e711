package dist

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/telemetry"
)

func TestClusterRunAllWorkers(t *testing.T) {
	c := NewCluster(8)
	var n int64
	c.Run(func(w *Worker) { atomic.AddInt64(&n, 1) })
	if n != 8 {
		t.Fatalf("ran %d workers; want 8", n)
	}
}

func TestAllGatherMatOrdering(t *testing.T) {
	c := NewCluster(4)
	c.Run(func(w *Worker) {
		m := mat.NewDense(1, 1)
		m.Set(0, 0, float64(w.Rank))
		parts := w.AllGatherMat(m)
		for r, p := range parts {
			if p.At(0, 0) != float64(r) {
				t.Errorf("rank %d: part[%d] = %g; want %d", w.Rank, r, p.At(0, 0), r)
			}
		}
	})
}

func TestAllGatherRepeatedRounds(t *testing.T) {
	// Slot reuse across rounds must not corrupt earlier reads.
	c := NewCluster(3)
	c.Run(func(w *Worker) {
		for round := 0; round < 20; round++ {
			m := mat.NewDense(1, 1)
			m.Set(0, 0, float64(w.Rank*100+round))
			parts := w.AllGatherMat(m)
			for r, p := range parts {
				want := float64(r*100 + round)
				if p.At(0, 0) != want {
					t.Errorf("round %d rank %d: part[%d] = %g; want %g",
						round, w.Rank, r, p.At(0, 0), want)
					return
				}
			}
		}
	})
}

func TestAllReduceMatSum(t *testing.T) {
	c := NewCluster(5)
	c.Run(func(w *Worker) {
		m := mat.NewDense(2, 2)
		m.Fill(float64(w.Rank + 1))
		sum := w.AllReduceMat(m)
		// 1+2+3+4+5 = 15 everywhere.
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				if sum.At(i, j) != 15 {
					t.Errorf("rank %d: sum = %g; want 15", w.Rank, sum.At(i, j))
					return
				}
			}
		}
		// Original must be untouched.
		if m.At(0, 0) != float64(w.Rank+1) {
			t.Errorf("rank %d: input mutated", w.Rank)
		}
	})
}

func TestAllReduceScalar(t *testing.T) {
	c := NewCluster(6)
	c.Run(func(w *Worker) {
		if got := w.AllReduceScalar(2.5); got != 15 {
			t.Errorf("rank %d: scalar sum = %g; want 15", w.Rank, got)
		}
	})
}

func TestBroadcast(t *testing.T) {
	c := NewCluster(4)
	c.Run(func(w *Worker) {
		var m *mat.Dense
		if w.Rank == 2 {
			m = mat.FromRows([][]float64{{7, 8}})
		}
		got := w.Broadcast(2, m)
		if got.At(0, 0) != 7 || got.At(0, 1) != 8 {
			t.Errorf("rank %d: broadcast got %v", w.Rank, got)
		}
		// Writes by non-root receivers must not affect others (clone).
		if w.Rank != 2 {
			got.Set(0, 0, -1)
		}
	})
}

func TestBroadcastDifferentRoots(t *testing.T) {
	c := NewCluster(3)
	c.Run(func(w *Worker) {
		for root := 0; root < 3; root++ {
			var m *mat.Dense
			if w.Rank == root {
				m = mat.NewDense(1, 1)
				m.Set(0, 0, float64(root*10))
			}
			got := w.Broadcast(root, m)
			if got.At(0, 0) != float64(root*10) {
				t.Errorf("rank %d root %d: got %g", w.Rank, root, got.At(0, 0))
				return
			}
		}
	})
}

func TestAllGatherVec(t *testing.T) {
	c := NewCluster(3)
	c.Run(func(w *Worker) {
		parts := w.AllGatherVec([]float64{float64(w.Rank)})
		for r, p := range parts {
			if len(p) != 1 || p[0] != float64(r) {
				t.Errorf("rank %d: parts[%d] = %v", w.Rank, r, p)
			}
		}
	})
}

func TestSingleWorkerCluster(t *testing.T) {
	c := NewCluster(1)
	c.Run(func(w *Worker) {
		m := mat.FromRows([][]float64{{3}})
		if got := w.AllReduceMat(m); got.At(0, 0) != 3 {
			t.Errorf("P=1 allreduce = %g", got.At(0, 0))
		}
		if got := w.Broadcast(0, m); got.At(0, 0) != 3 {
			t.Errorf("P=1 broadcast = %g", got.At(0, 0))
		}
	})
}

func TestCostModelMonotonicity(t *testing.T) {
	cm := V100Cluster(8)
	if cm.GEMM(512, 512, 512) <= cm.GEMM(128, 128, 128) {
		t.Fatal("GEMM cost not increasing in size")
	}
	if cm.Inverse(2048) <= cm.Inverse(256) {
		t.Fatal("Inverse cost not increasing in size")
	}
	if cm.AllGather(1<<20) <= cm.AllGather(1<<10) {
		t.Fatal("AllGather cost not increasing in size")
	}
}

func TestCostModelCubicScaling(t *testing.T) {
	cm := V100Cluster(8)
	// Doubling n must scale inversion by ≈8× once past fixed overheads.
	r := cm.Inverse(4096) / cm.Inverse(2048)
	if r < 6 || r > 10 {
		t.Fatalf("inverse scaling ratio = %g; want ≈8", r)
	}
}

func TestCostModelCollectivesScaleWithP(t *testing.T) {
	small, big := V100Cluster(4), V100Cluster(64)
	n := 1 << 20
	if big.AllGather(n) <= small.AllGather(n) {
		t.Fatal("AllGather should grow with P for fixed per-worker data")
	}
	if V100Cluster(1).AllReduce(n) != 0 {
		t.Fatal("P=1 collectives must be free")
	}
}

func TestCostModelBroadcastLogScaling(t *testing.T) {
	n := 1 << 20
	t8 := V100Cluster(8).Broadcast(n)
	t64 := V100Cluster(64).Broadcast(n)
	// log2(64)/log2(8) = 2.
	if r := t64 / t8; math.Abs(r-2) > 0.01 {
		t.Fatalf("broadcast scaling = %g; want 2", r)
	}
}

func TestK80SlowerThanV100(t *testing.T) {
	if K80Cluster(8).GEMM(512, 512, 512) <= V100Cluster(8).GEMM(512, 512, 512) {
		t.Fatal("K80 should be slower than V100")
	}
}

func TestTimelineAccumulation(t *testing.T) {
	tl := NewTimeline()
	tl.Add(PhaseGather, 0.5)
	tl.Add(PhaseGather, 0.25)
	tl.Add(PhaseInvert, 1)
	if got := tl.Total(PhaseGather); got != 0.75 {
		t.Fatalf("gather total = %g; want 0.75", got)
	}
	if got := tl.Sum(); got != 1.75 {
		t.Fatalf("sum = %g; want 1.75", got)
	}
	if got := tl.Sum(PhaseGather, PhaseInvert); got != 1.75 {
		t.Fatalf("selective sum = %g; want 1.75", got)
	}
	if got := tl.Count(PhaseGather); got != 2 {
		t.Fatalf("count = %d; want 2", got)
	}
	tl.Reset()
	if tl.Sum() != 0 {
		t.Fatal("reset did not clear")
	}
}

// RecordPhase feeds only rank 0's Timeline, and with telemetry off it
// sits on every optimizer's per-layer path without allocating.
func TestRecordPhase(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.Enabled())
	telemetry.SetEnabled(false)
	tl := NewTimeline()
	RecordPhase(tl, 0, "hylo", "KID", PhaseGather, 3, 500*time.Millisecond)
	RecordPhase(tl, 1, "hylo", "KID", PhaseGather, 3, time.Second)
	if got, n := tl.Total(PhaseGather), tl.Count(PhaseGather); got != 0.5 || n != 1 {
		t.Fatalf("gather = %g s over %d events; want rank 0's 0.5 s once", got, n)
	}
	allocs := testing.AllocsPerRun(100, func() {
		RecordPhase(nil, 0, "kfac", "", PhaseInvert, 7, time.Millisecond)
	})
	if allocs > 0 {
		t.Fatalf("RecordPhase allocated %.1f times per call with telemetry off", allocs)
	}
}

// Regression for the telemetry-backed Timeline: hammering Add from many
// plain goroutines (not just cluster workers) must yield exact totals and
// counts. The added values are exactly representable in binary so the sum
// is order-independent; any lost update would show up directly.
func TestTimelineConcurrentExactTotals(t *testing.T) {
	tl := NewTimeline()
	const (
		goroutines = 32
		perG       = 500
		val        = 0.5
	)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			phase := PhaseFactorize
			if g%2 == 1 {
				phase = PhaseInvert
			}
			for i := 0; i < perG; i++ {
				tl.Add(phase, val)
			}
		}(g)
	}
	wg.Wait()
	wantPer := float64(goroutines/2*perG) * val
	if got := tl.Total(PhaseFactorize); got != wantPer {
		t.Fatalf("factorization total = %g; want %g", got, wantPer)
	}
	if got := tl.Total(PhaseInvert); got != wantPer {
		t.Fatalf("inversion total = %g; want %g", got, wantPer)
	}
	if got := tl.Count(PhaseFactorize); got != goroutines/2*perG {
		t.Fatalf("count = %d; want %d", got, goroutines/2*perG)
	}
	if got := tl.Sum(); got != 2*wantPer {
		t.Fatalf("sum = %g; want %g", got, 2*wantPer)
	}
}

func TestTimelineConcurrent(t *testing.T) {
	tl := NewTimeline()
	c := NewCluster(8)
	c.Run(func(w *Worker) {
		for i := 0; i < 100; i++ {
			tl.Add(PhaseFactorize, 0.001)
		}
	})
	if got := tl.Count(PhaseFactorize); got != 800 {
		t.Fatalf("concurrent count = %d; want 800", got)
	}
}

// Regression: a worker that immediately overwrites its input after
// AllReduceMat must not corrupt peers' sums (reads complete before the
// exit barrier).
func TestAllReduceThenImmediateMutate(t *testing.T) {
	c := NewCluster(8)
	for round := 0; round < 50; round++ {
		c.Run(func(w *Worker) {
			m := mat.NewDense(4, 4)
			m.Fill(float64(w.Rank + 1))
			sum := w.AllReduceMat(m)
			m.Fill(-999) // immediately clobber the input
			want := 36.0 // 1+2+...+8
			for _, v := range sum.Data() {
				if v != want {
					t.Errorf("rank %d: sum element %g; want %g", w.Rank, v, want)
					return
				}
			}
		})
	}
}

// Regression: mutating gathered peer matrices must not affect the owners.
func TestAllGatherMatCopiesPeers(t *testing.T) {
	c := NewCluster(4)
	c.Run(func(w *Worker) {
		m := mat.NewDense(1, 1)
		m.Set(0, 0, float64(w.Rank))
		parts := w.AllGatherMat(m)
		for r, p := range parts {
			if r != w.Rank {
				p.Set(0, 0, -1) // scribble on the copy
			}
		}
		w.Barrier()
		if m.At(0, 0) != float64(w.Rank) {
			t.Errorf("rank %d: own matrix corrupted to %g", w.Rank, m.At(0, 0))
		}
	})
}

func TestReduceScatterRows(t *testing.T) {
	c := NewCluster(3)
	c.Run(func(w *Worker) {
		m := mat.NewDense(7, 2) // 7 rows: shards 2/2/3
		m.Fill(float64(w.Rank + 1))
		shard := w.ReduceScatterRows(m)
		wantRows := 2
		if w.Rank == 2 {
			wantRows = 3
		}
		if shard.Rows() != wantRows {
			t.Errorf("rank %d: shard rows = %d; want %d", w.Rank, shard.Rows(), wantRows)
			return
		}
		for _, v := range shard.Data() {
			if v != 6 { // 1+2+3
				t.Errorf("rank %d: shard value %g; want 6", w.Rank, v)
				return
			}
		}
	})
}

func TestQuantizeF32(t *testing.T) {
	m := mat.FromRows([][]float64{{1.0 / 3.0, 1e-8, -2.5}})
	q := QuantizeF32(m)
	if q.At(0, 0) != float64(float32(1.0/3.0)) {
		t.Fatal("QuantizeF32 did not round to float32")
	}
	if q.At(0, 2) != -2.5 { // exactly representable
		t.Fatal("exact value changed under quantization")
	}
}

func TestQuantizeBitsErrorBounded(t *testing.T) {
	rng := mat.NewRNG(80)
	m := mat.RandN(rng, 20, 20, 1)
	orig := m.Clone()
	QuantizeBits(m, 12) // Ueno-style 12 mantissa bits
	// Relative error per element ≤ 2^-12.
	for i, v := range m.Data() {
		o := orig.Data()[i]
		if o == 0 {
			continue
		}
		rel := (o - v) / o
		if rel < 0 {
			rel = -rel
		}
		if rel > 1.0/(1<<12) {
			t.Fatalf("element %d: relative error %g above 2^-12", i, rel)
		}
	}
	// More bits → no worse error.
	m2 := orig.Clone()
	QuantizeBits(m2, 23)
	if mat.MaxAbsDiff(m2, orig) > mat.MaxAbsDiff(m, orig) {
		t.Fatal("23-bit quantization worse than 12-bit")
	}
	// 52+ bits is identity.
	m3 := orig.Clone()
	QuantizeBits(m3, 52)
	if !mat.Equal(m3, orig, 0) {
		t.Fatal("52-bit quantization should be identity")
	}
}

func TestStragglerModel(t *testing.T) {
	rng := mat.NewRNG(130)
	s := NewStragglerModel(V100Cluster(16), 0.2, rng)
	if len(s.Slowdowns) != 16 {
		t.Fatalf("slowdowns = %d; want 16", len(s.Slowdowns))
	}
	for _, v := range s.Slowdowns {
		if v < 1 {
			t.Fatalf("slowdown %g below 1", v)
		}
	}
	if s.MaxSlowdown() < 1 {
		t.Fatal("max slowdown below 1")
	}
	// Step time with stragglers ≥ ideal; efficiency in (0, 1].
	compute, comm := 0.01, 0.002
	if s.StepTime(compute, comm) < compute+comm {
		t.Fatal("straggled step faster than ideal")
	}
	eff := s.Efficiency(compute, comm)
	if eff <= 0 || eff > 1 {
		t.Fatalf("efficiency %g out of range", eff)
	}
	// Zero jitter = no loss.
	s0 := NewStragglerModel(V100Cluster(8), 0, rng)
	if e := s0.Efficiency(compute, comm); e != 1 {
		t.Fatalf("zero-jitter efficiency = %g; want 1", e)
	}
	// Communication-dominated workloads lose less to stragglers.
	effComm := s.Efficiency(0.001, 0.1)
	effComp := s.Efficiency(0.1, 0.001)
	if effComm <= effComp {
		t.Fatalf("comm-bound efficiency %g should exceed compute-bound %g", effComm, effComp)
	}
}
