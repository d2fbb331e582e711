// Package dist simulates the multi-GPU cluster of the paper's evaluation:
// P workers run as goroutines and exchange real data through synchronous
// collectives (AllGather / AllReduce / Broadcast), so distributed
// algorithms exercise their true communication patterns; an analytic
// α-β + FLOP cost model (CostModel) supplies the simulated clock used by
// the scale experiments (Figs. 3, 7, 8, 9).
package dist

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/mat"
	"repro/internal/telemetry"
)

// countComm accrues per-participant collective accounting (payload bytes
// and call counts, labeled by op) into the global telemetry registry.
// It is a no-op — one atomic load — when telemetry is disabled.
func countComm(op string, elems int) {
	if !telemetry.Enabled() {
		return
	}
	lbl := telemetry.Label{Key: "op", Value: op}
	telemetry.IncCounter(telemetry.MetricCommBytes, int64(8*elems), lbl)
	telemetry.IncCounter(telemetry.MetricCommCalls, 1, lbl)
}

// Cluster coordinates P workers. All collectives are synchronous: every
// worker must participate in the same sequence of collective calls
// (mismatched sequences deadlock, as they would under MPI/NCCL).
type Cluster struct {
	P int

	barrier *barrier
	slots   []any
	rootMu  sync.Mutex
}

// NewCluster returns a cluster of p workers.
func NewCluster(p int) *Cluster {
	if p <= 0 {
		panic("dist: cluster needs at least one worker")
	}
	return &Cluster{P: p, barrier: newBarrier(p), slots: make([]any, p)}
}

// SetBarrierTimeout arms the barrier watchdog: a barrier that fails to
// complete within d is poisoned, converting a silent hang (a worker stuck
// or stalled without panicking) into the same loud failure a worker death
// produces, so RunWithRecovery can report it and an elastic driver can
// recover. d <= 0 disables the watchdog. Call before Run, not during.
func (c *Cluster) SetBarrierTimeout(d time.Duration) {
	c.barrier.mu.Lock()
	c.barrier.timeout = d
	c.barrier.mu.Unlock()
}

// Reset returns a cluster whose previous run failed (poisoned barrier,
// stale slots) to a usable state so an elastic driver can relaunch workers
// on it. It must only be called between Run/RunWithRecovery invocations —
// after the previous run's goroutines have all exited.
func (c *Cluster) Reset() {
	c.barrier.mu.Lock()
	timeout := c.barrier.timeout
	if c.barrier.watchdog != nil {
		c.barrier.watchdog.Stop()
	}
	c.barrier.mu.Unlock()
	c.barrier = newBarrier(c.P)
	c.barrier.timeout = timeout
	c.slots = make([]any, c.P)
}

// Run launches fn on every worker goroutine and waits for all to finish.
func (c *Cluster) Run(fn func(w *Worker)) {
	var wg sync.WaitGroup
	wg.Add(c.P)
	for r := 0; r < c.P; r++ {
		go func(rank int) {
			defer wg.Done()
			fn(&Worker{Rank: rank, c: c})
		}(r)
	}
	wg.Wait()
}

// Worker is one simulated GPU.
type Worker struct {
	Rank int
	c    *Cluster
}

// P returns the cluster size.
func (w *Worker) P() int { return w.c.P }

// Barrier blocks until all workers arrive.
func (w *Worker) Barrier() { w.c.barrier.await() }

// AllGather deposits this worker's value and returns every worker's
// contribution indexed by rank. Values are shared by reference and must not
// be mutated by any participant after the call; use the typed variants
// (AllGatherMat etc.), which deep-copy, when mutation may follow.
func (w *Worker) AllGather(v any) []any {
	w.c.slots[w.Rank] = v
	w.Barrier()
	out := make([]any, w.c.P)
	copy(out, w.c.slots)
	w.Barrier() // everyone has read before slots are reused
	return out
}

// AllGatherMat gathers matrices from all workers (rank order). Peers'
// matrices are deep-copied before the exit barrier, so callers may freely
// mutate their input or the results afterwards.
func (w *Worker) AllGatherMat(m *mat.Dense) []*mat.Dense {
	countComm("allgather", m.Rows()*m.Cols())
	w.c.slots[w.Rank] = m
	w.Barrier()
	out := make([]*mat.Dense, w.c.P)
	for i, p := range w.c.slots {
		pm := p.(*mat.Dense)
		if i == w.Rank {
			out[i] = pm
		} else {
			out[i] = pm.Clone()
		}
	}
	w.Barrier() // all copies taken before anyone mutates the originals
	return out
}

// AllGatherVec gathers float slices from all workers (rank order), copying
// peers' data before the exit barrier.
func (w *Worker) AllGatherVec(v []float64) [][]float64 {
	countComm("allgather", len(v))
	w.c.slots[w.Rank] = v
	w.Barrier()
	out := make([][]float64, w.c.P)
	for i, p := range w.c.slots {
		pv := p.([]float64)
		if i == w.Rank {
			out[i] = pv
		} else {
			out[i] = append([]float64(nil), pv...)
		}
	}
	w.Barrier()
	return out
}

// AllGatherBytes gathers opaque byte payloads from all workers (rank
// order), copying peers' data before the exit barrier. It implements
// ByteGatherer — the checkpoint gather primitive.
func (w *Worker) AllGatherBytes(b []byte) [][]byte {
	w.c.slots[w.Rank] = b
	w.Barrier()
	out := make([][]byte, w.c.P)
	for i, p := range w.c.slots {
		pb, _ := p.([]byte)
		if i == w.Rank {
			out[i] = pb
		} else {
			out[i] = append([]byte(nil), pb...)
		}
	}
	w.Barrier()
	return out
}

// AllReduceMat sums matrices across workers; every worker receives the sum
// in a freshly allocated matrix. The reduction completes before the exit
// barrier (so callers may immediately mutate their inputs), and every
// worker applies the canonical pairwise-tree order (see reduce.go), so
// results are bitwise identical across ranks — and across transports.
func (w *Worker) AllReduceMat(m *mat.Dense) *mat.Dense {
	countComm("allreduce", m.Rows()*m.Cols())
	w.c.slots[w.Rank] = m
	w.Barrier()
	parts := make([]*mat.Dense, w.c.P)
	for i, p := range w.c.slots {
		parts[i] = p.(*mat.Dense)
	}
	sum := CanonicalReduceDense(parts)
	w.Barrier()
	return sum
}

// ReduceScatterRows sums matrices across workers and returns this
// worker's row shard of the sum: worker i receives rows [i·m/P, (i+1)·m/P)
// (the trailing remainder goes to the last worker). This is the first
// phase of a ring all-reduce and the primitive KAISA's memory-optimized
// mode distributes factors with.
func (w *Worker) ReduceScatterRows(m *mat.Dense) *mat.Dense {
	countComm("reducescatter", m.Rows()*m.Cols())
	w.c.slots[w.Rank] = m
	w.Barrier()
	p := w.c.P
	rows := m.Rows()
	per := rows / p
	lo := w.Rank * per
	hi := lo + per
	if w.Rank == p-1 {
		hi = rows
	}
	shard := mat.NewDense(hi-lo, m.Cols())
	for _, part := range w.c.slots {
		pm := part.(*mat.Dense)
		for i := lo; i < hi; i++ {
			dst := shard.Row(i - lo)
			src := pm.Row(i)
			for j := range dst {
				dst[j] += src[j]
			}
		}
	}
	w.Barrier()
	return shard
}

// AllReduceScalar sums a scalar across workers in the canonical
// pairwise-tree order.
func (w *Worker) AllReduceScalar(v float64) float64 {
	parts := w.AllGather(v)
	vals := make([]float64, len(parts))
	for i, p := range parts {
		vals[i] = p.(float64)
	}
	return CanonicalReduceScalar(vals)
}

// Broadcast sends root's matrix to all workers. Non-root callers pass nil
// (or any value; it is ignored) and receive a clone of root's matrix.
func (w *Worker) Broadcast(root int, m *mat.Dense) *mat.Dense {
	if root < 0 || root >= w.c.P {
		panic(fmt.Sprintf("dist: broadcast root %d out of range", root))
	}
	if w.Rank == root {
		countComm("broadcast", m.Rows()*m.Cols())
		w.c.slots[root] = m
	}
	w.Barrier()
	v := w.c.slots[root].(*mat.Dense)
	var out *mat.Dense
	if w.Rank == root {
		out = m
	} else {
		out = v.Clone()
	}
	w.Barrier()
	return out
}

// barrier is a reusable N-party barrier. A poisoned barrier (a peer died
// under RunWithRecovery, or the watchdog expired) panics in every waiter
// instead of deadlocking.
type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	count    int
	gen      int
	poisoned bool

	// timeout arms the watchdog: the first waiter of a generation starts
	// a timer; if the generation has not completed when it fires, the
	// barrier is poisoned (a hang becomes a loud failure).
	timeout  time.Duration
	watchdog *time.Timer
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	if b.poisoned {
		b.mu.Unlock()
		panic(ErrClusterPoisoned)
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		if b.watchdog != nil {
			b.watchdog.Stop()
			b.watchdog = nil
		}
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	if b.count == 1 && b.timeout > 0 {
		// First waiter of this generation arms the watchdog.
		b.watchdog = time.AfterFunc(b.timeout, func() { b.bark(gen) })
	}
	for gen == b.gen && !b.poisoned {
		b.cond.Wait()
	}
	// Generation advance means the barrier completed before any poisoning
	// became relevant to this waiter; only an un-advanced generation under
	// poison is a true peer-death.
	stuck := gen == b.gen && b.poisoned
	b.mu.Unlock()
	if stuck {
		panic(ErrClusterPoisoned)
	}
}

// bark is the watchdog's expiry path: if the generation it was armed for
// is still incomplete, the barrier is poisoned so every waiter fails
// loudly instead of hanging forever.
func (b *barrier) bark(gen int) {
	b.mu.Lock()
	expired := gen == b.gen && b.count > 0 && !b.poisoned
	timeout := b.timeout
	if expired {
		b.poisoned = true
		b.cond.Broadcast()
	}
	b.mu.Unlock()
	if expired {
		telemetry.IncCounter(telemetry.MetricBarrierWatchdog, 1)
		telemetry.Instant("barrier_watchdog_expired", 0,
			telemetry.Label{Key: "timeout", Value: timeout.String()})
	}
}
