// Package sched is the execution scheduler for layer-parallel
// preconditioning: it pipelines the per-layer stages of a second-order
// update (local factorization → gather → solve → broadcast → store) across
// a bounded worker pool and overlaps communication with computation, while
// keeping results bit-identical to the sequential path.
//
// # Determinism
//
// Three rules make the parallel schedule reproduce the sequential one
// bit for bit:
//
//  1. Compute stages touch only per-layer state; anything consuming a
//     shared RNG either runs before the pipeline (KIS sampling) or is
//     declared Ordered, which serializes that stage in ascending layer
//     order (randomized KID sketches).
//  2. All collectives are issued by ONE dispatcher goroutine in a fixed
//     canonical order — stage-major: for each comm stage in pipeline
//     order, layers ascending. Every rank submits the identical sequence,
//     so barrier sequences match, the sequence validator stays green, and
//     chaos-injection draws (one per collective, in call order) align
//     exactly with a sequential run of the same canonical order.
//  3. Parallel kernels under the stages (GEMM, row loops) produce results
//     independent of their worker count, and the shared token pool only
//     changes worker counts, never arithmetic order.
//
// # Token pool
//
// One process-wide TokenPool (capacity max(workers, GOMAXPROCS)) is shared
// between stage execution and mat's parallel kernels via mat.Limiter:
// every running stage holds a token, and a GEMM inside a stage may only
// add workers by borrowing spare tokens non-blockingly. Nested parallelism
// therefore never exceeds the pool capacity (TestTokenBudget).
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mat"
	"repro/internal/telemetry"
)

var (
	workersVal atomic.Int64
	pool       atomic.Pointer[TokenPool]
)

func init() { SetWorkers(runtime.GOMAXPROCS(0)) }

// SetWorkers sets the scheduler's per-optimizer stage parallelism: n > 1
// enables the layer-parallel pipelines, n = 1 selects the legacy
// sequential path. It also rebuilds the process-wide token pool (capacity
// max(n, GOMAXPROCS)) and installs it as mat's parallel-kernel limiter.
// Call between updates, not concurrently with a running pipeline.
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	workersVal.Store(int64(n))
	c := runtime.GOMAXPROCS(0)
	if n > c {
		c = n
	}
	p := NewTokenPool(c)
	pool.Store(p)
	mat.SetParallelLimiter(p)
}

// Workers returns the configured stage parallelism (≥ 1).
func Workers() int { return int(workersVal.Load()) }

// Tokens returns the current process-wide token pool.
func Tokens() *TokenPool { return pool.Load() }

// Stage is one step of a per-layer preconditioner pipeline. Stages run in
// slice order for each layer, with Fn(i) invoked once per layer index.
type Stage struct {
	// Name labels the stage in diagnostics.
	Name string
	// Comm marks a communication stage: its Fn must only SUBMIT async
	// collectives (dist.AsyncComm StartX) and return without blocking on
	// results. Comm stages are executed by the single dispatcher goroutine
	// in canonical stage-major order.
	Comm bool
	// Ordered serializes a compute stage in ascending layer order (layer
	// i's Fn runs only after layer i−1's). Required for stages that
	// consume a shared RNG.
	Ordered bool
	// Wait, when non-nil, runs before Fn WITHOUT holding a compute token:
	// the place to block on futures from an earlier comm stage, so tokens
	// are not parked on communication waits.
	Wait func(layer int)
	// Fn does the stage's work for one layer.
	Fn func(layer int)
}

// Engine runs stage pipelines. Each optimizer owns one Engine so its done
// matrix and worker slots are reused across updates (steady-state
// allocation stays bounded). An Engine must not be copied after first use.
type Engine struct {
	mu     sync.Mutex
	cond   *sync.Cond
	done   [][]bool
	abort  bool
	failed any

	slots  chan struct{}
	slotsW int
}

// Run executes the pipeline over n layers. With Workers() == 1 (or a
// single layer) it degrades to the inline sequential path: every stage run
// on the calling goroutine in the same canonical stage-major order, with
// no goroutines, channels, or tokens — the `-sched-workers=1` legacy
// schedule. A panic in any stage is re-raised on the caller, preserving
// the worker-death semantics RunWithRecovery and RunElastic rely on.
func Run(e *Engine, n int, stages []Stage) {
	if n <= 0 || len(stages) == 0 {
		return
	}
	if Workers() <= 1 || n == 1 {
		for s := range stages {
			st := &stages[s]
			for i := 0; i < n; i++ {
				if st.Wait != nil {
					st.Wait(i)
				}
				st.Fn(i)
			}
		}
		return
	}
	e.run(n, stages)
}

// Loop is a single-compute-stage pipeline: the per-layer loop of work
// that touches only per-layer state and issues no collectives (every
// Precondition, and the comm-free Updates of LocalSNGD and KBFGS-L). It
// owns its stage definition and Engine, so repeated runs allocate nothing.
type Loop struct {
	stage []Stage
	eng   Engine
}

// NewLoop returns a Loop that runs fn for each layer as the stage name.
func NewLoop(name string, fn func(layer int)) *Loop {
	return &Loop{stage: []Stage{{Name: name, Fn: fn}}}
}

// Run executes the loop over layers 0..n-1 (see Run for the schedule).
func (l *Loop) Run(n int) { Run(&l.eng, n, l.stage) }

func (e *Engine) run(n int, stages []Stage) {
	w := Workers()
	if e.cond == nil {
		e.cond = sync.NewCond(&e.mu)
	}
	e.resize(len(stages), n)
	e.abort = false
	e.failed = nil
	if e.slotsW != w {
		e.slots = make(chan struct{}, w)
		e.slotsW = w
	}
	abortCh := make(chan struct{})
	tokens := Tokens()

	var busy atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(n + 1)

	// One goroutine per layer walks that layer's compute stages in order;
	// cross-layer and comm dependencies are expressed through the done
	// matrix. Concurrency is bounded by the worker slots (stage fan-out)
	// and the global token pool (machine-wide compute budget).
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			for s := range stages {
				st := &stages[s]
				if st.Comm {
					continue
				}
				if s > 0 && !e.waitDone(s-1, i) {
					return
				}
				if st.Ordered && i > 0 && !e.waitDone(s, i-1) {
					return
				}
				if st.Wait != nil && !e.runHook(st.Wait, i, abortCh) {
					return
				}
				select {
				case e.slots <- struct{}{}:
				case <-abortCh:
					return
				}
				if !tokens.Acquire(abortCh) {
					<-e.slots
					return
				}
				t := time.Now()
				ok := e.runHook(st.Fn, i, abortCh)
				busy.Add(int64(time.Since(t)))
				tokens.Release(1)
				<-e.slots
				if !ok {
					return
				}
				e.markDone(s, i)
			}
		}(i)
	}

	// The comm dispatcher: the only goroutine issuing collectives, in the
	// canonical stage-major order. Submission is non-blocking (async
	// executor), so a gather for layer i+1 enters the wire while layer i's
	// solve still runs — the comm/compute overlap this package exists for.
	go func() {
		defer wg.Done()
		for s := range stages {
			st := &stages[s]
			if !st.Comm {
				continue
			}
			for i := 0; i < n; i++ {
				if s > 0 && !e.waitDone(s-1, i) {
					return
				}
				if st.Wait != nil && !e.runHook(st.Wait, i, abortCh) {
					return
				}
				t := time.Now()
				if !e.runHook(st.Fn, i, abortCh) {
					return
				}
				busy.Add(int64(time.Since(t)))
				e.markDone(s, i)
			}
		}
	}()

	wg.Wait()
	if telemetry.Enabled() {
		if over := busy.Load() - int64(time.Since(t0)); over > 0 {
			telemetry.IncCounter(telemetry.MetricSchedOverlap, over)
		}
	}
	if e.failed != nil {
		panic(e.failed)
	}
}

func (e *Engine) resize(stages, n int) {
	if len(e.done) != stages || (stages > 0 && len(e.done[0]) != n) {
		e.done = make([][]bool, stages)
		for s := range e.done {
			e.done[s] = make([]bool, n)
		}
		return
	}
	for s := range e.done {
		row := e.done[s]
		for i := range row {
			row[i] = false
		}
	}
}

func (e *Engine) markDone(s, i int) {
	e.mu.Lock()
	e.done[s][i] = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

func (e *Engine) waitDone(s, i int) bool {
	e.mu.Lock()
	for !e.done[s][i] && !e.abort {
		e.cond.Wait()
	}
	ok := !e.abort
	e.mu.Unlock()
	return ok
}

// fail records the first failure and wakes every waiter; later failures
// (cascading aborts) are dropped.
func (e *Engine) fail(r any, abortCh chan struct{}) {
	e.mu.Lock()
	if !e.abort {
		e.abort = true
		e.failed = r
		close(abortCh)
	}
	e.cond.Broadcast()
	e.mu.Unlock()
}

func (e *Engine) runHook(fn func(int), i int, abortCh chan struct{}) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			e.fail(r, abortCh)
			ok = false
		}
	}()
	fn(i)
	return true
}
