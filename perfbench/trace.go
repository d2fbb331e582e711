package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/train"
)

// The traced run observes the program only through interfaces it already
// accepts: every top-level nn.Layer of a replica is replaced by a timing
// wrapper, the preconditioner the factory returns is decorated, and the
// dist.Comm handed to the factory is wrapped with counters. Nothing inside
// the program changes, so the traced run must reproduce the untraced
// run's loss bits exactly.

// stepRec is one training step of one replica.
type stepRec struct {
	start, end       time.Time
	fwd, bwd         time.Duration
	update, precond  time.Duration
	refresh          bool
	layerFwd, layBwd []time.Duration
}

// replica collects the step anatomy of one network replica. Its layers,
// preconditioner and the rank's OnEpoch hook all run on the rank's
// training goroutine; the comm counters are atomic because collectives run
// on the async executor.
type replica struct {
	rank   int
	layers []string
	steps  []stepRec
	inEval bool
	// evalStart holds, per epoch, when the first evaluation forward began.
	evalStart []time.Time
	comm      *countingComm
	updates   int
	nParams   int
	// build is the time buildNet and the preconditioner factory took.
	build time.Duration
}

func (r *replica) cur() *stepRec { return &r.steps[len(r.steps)-1] }

// beginStep opens a step at the first training forward of the top layer.
func (r *replica) beginStep(now time.Time) {
	if n := len(r.steps); n > 0 && r.steps[n-1].end.IsZero() {
		r.steps[n-1].end = now
	}
	r.inEval = false
	r.steps = append(r.steps, stepRec{
		start:    now,
		layerFwd: make([]time.Duration, len(r.layers)),
		layBwd:   make([]time.Duration, len(r.layers)),
	})
}

// beginEval closes the last training step at the first evaluation forward.
func (r *replica) beginEval(now time.Time) {
	r.inEval = true
	if n := len(r.steps); n > 0 && r.steps[n-1].end.IsZero() {
		r.steps[n-1].end = now
	}
	r.evalStart = append(r.evalStart, now)
}

// tracer owns the replicas of one traced training trial.
type tracer struct {
	mu       sync.Mutex
	replicas map[*nn.Network]*replica
}

func newTracer() *tracer { return &tracer{replicas: map[*nn.Network]*replica{}} }

// rank0 returns the replica that hosted global rank 0, or nil.
func (t *tracer) rank0() *replica {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.replicas {
		if r.rank == 0 {
			return r
		}
	}
	return nil
}

// Build wraps a network builder so that every top-level layer of each
// replica it builds is a timing layer.
func (t *tracer) Build(build func(rng *mat.RNG) *nn.Network) func(rng *mat.RNG) *nn.Network {
	return func(rng *mat.RNG) *nn.Network {
		t0 := time.Now()
		net := build(rng)
		rep := &replica{rank: -1, nParams: len(net.Params()), build: time.Since(t0)}
		for i, l := range net.Layers {
			rep.layers = append(rep.layers, l.Name())
			net.Layers[i] = &timedLayer{inner: l, rep: rep, idx: i}
		}
		t.mu.Lock()
		t.replicas[net] = rep
		t.mu.Unlock()
		return net
	}
}

// Factory wraps a preconditioner factory: the Comm it receives is counted
// and the preconditioner it returns is timed.
func (t *tracer) Factory(f train.PrecondFactory) train.PrecondFactory {
	return func(net *nn.Network, c dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner {
		t.mu.Lock()
		rep := t.replicas[net]
		t.mu.Unlock()
		if rep == nil {
			panic("perfbench: preconditioner built for a network the tracer did not build")
		}
		t0 := time.Now()
		rep.rank = c.ID()
		rep.comm = &countingComm{inner: c}
		p := decorate(f(net, rep.comm, tl, rng), rep)
		rep.build += time.Since(t0)
		return p
	}
}

// timedLayer times one top-level layer. It is a Composite whose only
// sub-layer is the inner layer (or the inner's own sub-layers), so
// Network.KernelLayers still yields the original kernel layers, in order,
// by identity, and preconditioners never see the wrapper.
type timedLayer struct {
	inner nn.Layer
	rep   *replica
	idx   int
}

func (l *timedLayer) Name() string { return l.inner.Name() }

func (l *timedLayer) Build(in nn.Shape, rng *mat.RNG) nn.Shape { return l.inner.Build(in, rng) }

func (l *timedLayer) Params() []*nn.Param { return l.inner.Params() }

// SubLayers implements nn.Composite.
func (l *timedLayer) SubLayers() []nn.Layer {
	if c, ok := l.inner.(nn.Composite); ok {
		return c.SubLayers()
	}
	return []nn.Layer{l.inner}
}

func (l *timedLayer) Forward(x *mat.Dense, trainMode bool) *mat.Dense {
	t0 := time.Now()
	if l.idx == 0 {
		if trainMode {
			l.rep.beginStep(t0)
		} else if !l.rep.inEval {
			l.rep.beginEval(t0)
		}
	}
	y := l.inner.Forward(x, trainMode)
	if trainMode && len(l.rep.steps) > 0 {
		d := time.Since(t0)
		s := l.rep.cur()
		s.fwd += d
		s.layerFwd[l.idx] += d
	}
	return y
}

func (l *timedLayer) Backward(g *mat.Dense) *mat.Dense {
	t0 := time.Now()
	out := l.inner.Backward(g)
	if len(l.rep.steps) > 0 {
		d := time.Since(t0)
		s := l.rep.cur()
		s.bwd += d
		s.layBwd[l.idx] += d
	}
	return out
}

// countingComm counts the preconditioner's collectives. Unwrap keeps
// dist.AsWorker/AsBarrier/AsByteGatherer working through it.
type countingComm struct {
	inner dist.Comm
	// calls and bytes count every collective this rank joins; arCalls and
	// arBytes count the all-reduces alone, the op the trainer's gradient
	// reduction shares with the dist_comm_*_total{op="allreduce"} counters.
	calls, bytes, arCalls, arBytes, nanos atomic.Int64
}

func (c *countingComm) Unwrap() dist.Comm { return c.inner }
func (c *countingComm) Size() int         { return c.inner.Size() }
func (c *countingComm) ID() int           { return c.inner.ID() }

func (c *countingComm) note(elems int, t0 time.Time) {
	c.calls.Add(1)
	c.bytes.Add(int64(8 * elems))
	c.nanos.Add(int64(time.Since(t0)))
}

func (c *countingComm) AllGatherMat(m *mat.Dense) []*mat.Dense {
	t0 := time.Now()
	out := c.inner.AllGatherMat(m)
	c.note(m.Rows()*m.Cols(), t0)
	return out
}

func (c *countingComm) AllReduceMat(m *mat.Dense) *mat.Dense {
	t0 := time.Now()
	out := c.inner.AllReduceMat(m)
	c.arCalls.Add(1)
	c.arBytes.Add(int64(8 * m.Rows() * m.Cols()))
	c.note(m.Rows()*m.Cols(), t0)
	return out
}

func (c *countingComm) BroadcastMat(root int, m *mat.Dense) *mat.Dense {
	t0 := time.Now()
	out := c.inner.BroadcastMat(root, m)
	c.note(out.Rows()*out.Cols(), t0)
	return out
}

func (c *countingComm) AllReduceScalar(v float64) float64 {
	t0 := time.Now()
	out := c.inner.AllReduceScalar(v)
	c.note(1, t0)
	return out
}

// tracedPre times Update and Precondition. decorate adds exactly the
// optional interfaces the inner preconditioner has.
type tracedPre struct {
	inner opt.Preconditioner
	rep   *replica
}

func (p *tracedPre) Name() string    { return p.inner.Name() }
func (p *tracedPre) StateBytes() int { return p.inner.StateBytes() }

func (p *tracedPre) Update() {
	t0 := time.Now()
	p.inner.Update()
	p.rep.updates++
	if len(p.rep.steps) > 0 {
		s := p.rep.cur()
		s.update += time.Since(t0)
		s.refresh = true
	}
}

func (p *tracedPre) Precondition() {
	t0 := time.Now()
	p.inner.Precondition()
	if len(p.rep.steps) > 0 {
		p.rep.cur().precond += time.Since(t0)
	}
}

// The optional preconditioner interfaces the trainer looks for.
type (
	damper interface {
		SetDamping(alpha float64)
		CurrentDamping() float64
	}
	moder interface{ ModeStrings() []string }

	epochFwd  struct{ train.EpochAware }
	saverFwd  struct{ ckpt.StateSaver }
	damperFwd struct{ damper }
	moderFwd  struct{ moder }
)

// decorate returns p wrapped in a tracedPre that implements
// train.EpochAware, ckpt.StateSaver, SetDamping/CurrentDamping and
// ModeStrings exactly when p does.
func decorate(p opt.Preconditioner, rep *replica) opt.Preconditioner {
	t := &tracedPre{inner: p, rep: rep}
	e, hasE := p.(train.EpochAware)
	s, hasS := p.(ckpt.StateSaver)
	d, hasD := p.(damper)
	m, hasM := p.(moder)
	ef, sf, df, mf := epochFwd{e}, saverFwd{s}, damperFwd{d}, moderFwd{m}
	switch {
	case hasE && hasS && hasD && hasM:
		return struct {
			*tracedPre
			epochFwd
			saverFwd
			damperFwd
			moderFwd
		}{t, ef, sf, df, mf}
	case hasE && hasS && hasD:
		return struct {
			*tracedPre
			epochFwd
			saverFwd
			damperFwd
		}{t, ef, sf, df}
	case hasE && hasS && hasM:
		return struct {
			*tracedPre
			epochFwd
			saverFwd
			moderFwd
		}{t, ef, sf, mf}
	case hasE && hasD && hasM:
		return struct {
			*tracedPre
			epochFwd
			damperFwd
			moderFwd
		}{t, ef, df, mf}
	case hasS && hasD && hasM:
		return struct {
			*tracedPre
			saverFwd
			damperFwd
			moderFwd
		}{t, sf, df, mf}
	case hasE && hasS:
		return struct {
			*tracedPre
			epochFwd
			saverFwd
		}{t, ef, sf}
	case hasE && hasD:
		return struct {
			*tracedPre
			epochFwd
			damperFwd
		}{t, ef, df}
	case hasE && hasM:
		return struct {
			*tracedPre
			epochFwd
			moderFwd
		}{t, ef, mf}
	case hasS && hasD:
		return struct {
			*tracedPre
			saverFwd
			damperFwd
		}{t, sf, df}
	case hasS && hasM:
		return struct {
			*tracedPre
			saverFwd
			moderFwd
		}{t, sf, mf}
	case hasD && hasM:
		return struct {
			*tracedPre
			damperFwd
			moderFwd
		}{t, df, mf}
	case hasE:
		return struct {
			*tracedPre
			epochFwd
		}{t, ef}
	case hasS:
		return struct {
			*tracedPre
			saverFwd
		}{t, sf}
	case hasD:
		return struct {
			*tracedPre
			damperFwd
		}{t, df}
	case hasM:
		return struct {
			*tracedPre
			moderFwd
		}{t, mf}
	}
	return t
}
