// Package kfac implements the Kronecker-factored curvature baselines: KFAC
// (Martens & Grosse) with the KAISA-style distributed execution schedule
// (factor all-reduce, layer-assigned inversion, inverse broadcast), and
// EKFAC (George et al.), which rescales the Kronecker eigenbasis with a
// running diagonal second-moment estimate.
package kfac

import (
	"math"
	"time"

	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/numerics"
	"repro/internal/sched"
)

// KFAC approximates each layer's Fisher block inverse with the Kronecker
// product of inverted input/gradient covariances (Eq. 6 of the paper):
//
//	(F + αI)⁻¹ ≈ (AᵀA/m + γI)⁻¹ ⊗ (GᵀG/m + γI)⁻¹.
type KFAC struct {
	// Damping is the factor damping γ.
	Damping float64
	// Decay is the running-average coefficient for the factors.
	Decay float64
	// Strategy selects the KAISA placement mode (mem-opt, comm-opt, or
	// hybrid); the zero value is the memory-optimal schedule.
	Strategy Strategy
	// HybridBudgetBytes bounds the per-worker factor state kept
	// communication-optimally under StrategyHybrid.
	HybridBudgetBytes int
	// PiCorrection enables the Tikhonov π damping split between the two
	// Kronecker factors (Martens & Grosse §6.3).
	PiCorrection bool

	layers   []nn.KernelLayer
	comm     dist.Comm
	async    *dist.AsyncComm
	timeline *dist.Timeline
	state    []*kfacState

	// Layer-parallel execution (internal/sched): see the HyLo counterpart.
	plans  []kfacPlan
	stages []sched.Stage
	eng    sched.Engine
	prec   *sched.Loop
}

type kfacState struct {
	aFactor, gFactor *mat.Dense // running covariance estimates
	aInv, gInv       *mat.Dense
	initialized      bool

	// Persistent staging for the freshly computed factors (handed to the
	// communicator, so owned here rather than pooled).
	faBuf, fgBuf *mat.Dense
}

// kfacPlan is one layer's slot in the scheduled pipeline; it persists
// across updates so the embedded futures are reused allocation-free.
type kfacPlan struct {
	layer, owner int
	l            nn.KernelLayer
	st           *kfacState
	m            float64
	commOpt      bool

	a, g       *mat.Dense // this step's captures
	fa, fg     *mat.Dense // all-reduced factors
	aF, gF     dist.MatFuture
	aInv, gInv *mat.Dense // owner's inverses headed for broadcast
	aBF, gBF   dist.MatFuture
}

// NewKFAC builds a KFAC preconditioner over the network's kernel layers.
// comm may be dist.Local() for single-process runs. timeline is optional.
func NewKFAC(net *nn.Network, damping float64, comm dist.Comm, timeline *dist.Timeline) *KFAC {
	k := &KFAC{Damping: damping, Decay: 0.95, layers: net.KernelLayers(), comm: comm, timeline: timeline}
	k.state = make([]*kfacState, len(k.layers))
	for i, l := range k.layers {
		dIn, dOut := l.Dims()
		k.state[i] = &kfacState{
			aFactor: mat.NewDense(dIn, dIn),
			gFactor: mat.NewDense(dOut, dOut),
		}
	}
	k.prec = sched.NewLoop("precondition", k.stagePrecondition)
	return k
}

// Name implements opt.Preconditioner.
func (k *KFAC) Name() string { return "KFAC" }

// invertFactor is the degradation-aware damped inverse of one Kronecker
// factor: bounded Levenberg-Marquardt escalation first, then the diagonal
// (Jacobi) pseudo-inverse when no damping stabilizes the solve — the
// Kronecker product of diagonal inverses is still a usable (Adagrad-like)
// preconditioner. Retries and fallbacks are recorded under site.
func invertFactor(f *mat.Dense, gamma float64, site string) *mat.Dense {
	inv, _, retries, _, err := mat.InvSPDDampedChecked(f, gamma)
	if retries > 0 {
		numerics.AddRetries(site, retries)
	}
	if err == nil && inv.IsFinite() {
		return inv
	}
	reason := "factor inverse not finite"
	if err != nil {
		reason = err.Error()
	}
	numerics.RecordFallback(site, numerics.RungDiagonal, reason)
	return mat.DiagInvDamped(f, gamma)
}

// ensureStages builds the pipeline definition once; its closures index
// k.plans.
func (k *KFAC) ensureStages() {
	if k.stages != nil {
		return
	}
	k.stages = []sched.Stage{
		{Name: "factorize", Fn: k.stageFactorize},
		{Name: "reduce", Comm: true, Fn: k.stageReduce},
		{Name: "invert", Wait: k.waitReduce, Fn: k.stageInvert},
		{Name: "broadcast", Comm: true, Fn: k.stageBroadcast},
		{Name: "store", Wait: k.waitBroadcast, Fn: k.stageStore},
	}
}

// Update implements opt.Preconditioner: recompute factors from the latest
// captures, all-reduce them, invert owned layers, broadcast inverses —
// executed as a scheduled pipeline so one layer's factor all-reduce is in
// flight while the next layer still computes its Gram factors.
func (k *KFAC) Update() {
	p := k.comm.Size()
	if k.async == nil {
		k.async = dist.Async(k.comm)
	}
	k.ensureStages()
	k.plans = k.plans[:0]
	for i, l := range k.layers {
		a, g := l.Capture()
		if a == nil {
			continue
		}
		k.plans = append(k.plans, kfacPlan{
			layer: i, owner: i % p, l: l, st: k.state[i],
			m: float64(a.Rows() * p), commOpt: k.layerCommOpt(i),
			a: a, g: g,
		})
	}
	sched.Run(&k.eng, len(k.plans), k.stages)
}

// stageFactorize computes this step's factors, staged in persistent
// workspaces (KAISA step 2).
func (k *KFAC) stageFactorize(i int) {
	pl := &k.plans[i]
	st := pl.st
	t0 := time.Now()
	st.faBuf = mat.EnsureDense(st.faBuf, pl.a.Cols(), pl.a.Cols())
	mat.GramTInto(st.faBuf, pl.a)
	st.faBuf.Scale(1 / pl.m)
	st.fgBuf = mat.EnsureDense(st.fgBuf, pl.g.Cols(), pl.g.Cols())
	mat.GramTInto(st.fgBuf, pl.g)
	st.fgBuf.Scale(1 / pl.m)
	dist.RecordPhase(k.timeline, k.comm.ID(), "kfac", "", dist.PhaseFactorize, pl.layer, time.Since(t0))
}

// stageReduce submits the factor all-reduces (KAISA step 3).
func (k *KFAC) stageReduce(i int) {
	pl := &k.plans[i]
	k.async.StartAllReduceMat(&pl.aF, pl.st.faBuf)
	k.async.StartAllReduceMat(&pl.gF, pl.st.fgBuf)
}

func (k *KFAC) waitReduce(i int) {
	pl := &k.plans[i]
	pl.fa = pl.aF.Wait()
	pl.fg = pl.gF.Wait()
}

// stageInvert folds the reduced factors into the running averages held by
// this rank and inverts where the placement strategy says to (KAISA step 4).
func (k *KFAC) stageInvert(i int) {
	pl := &k.plans[i]
	st := pl.st
	dist.RecordPhase(k.timeline, k.comm.ID(), "kfac", "", dist.PhaseGather, pl.layer, pl.aF.Dur()+pl.gF.Dur())
	// Memory-optimal layers keep the running factor state only on
	// their owner; comm-optimal layers keep it everywhere.
	keepFactors := pl.commOpt || k.comm.ID() == pl.owner
	if keepFactors {
		if !st.initialized {
			// Bootstrap the running average from the first observation.
			st.aFactor.CopyFrom(pl.fa)
			st.gFactor.CopyFrom(pl.fg)
			st.initialized = true
		} else {
			st.aFactor.Scale(k.Decay).AddScaled(pl.fa, 1-k.Decay)
			st.gFactor.Scale(k.Decay).AddScaled(pl.fg, 1-k.Decay)
		}
	}
	if pl.commOpt {
		// (4') Communication-optimal: every worker inverts locally; no
		// inverse broadcast (KAISA's comm-opt placement).
		t0 := time.Now()
		st.aInv, st.gInv = k.invertPair(pl.l, st)
		dist.RecordPhase(k.timeline, k.comm.ID(), "kfac", "", dist.PhaseInvert, pl.layer, time.Since(t0))
		return
	}
	pl.aInv, pl.gInv = nil, nil
	if k.comm.ID() == pl.owner {
		t0 := time.Now()
		pl.aInv, pl.gInv = k.invertPair(pl.l, st)
		dist.RecordPhase(k.timeline, k.comm.ID(), "kfac", "", dist.PhaseInvert, pl.layer, time.Since(t0))
	}
}

// invertPair inverts both Kronecker factors with optional π damping split.
func (k *KFAC) invertPair(l nn.KernelLayer, st *kfacState) (aInv, gInv *mat.Dense) {
	gA, gG := math.Sqrt(k.Damping), math.Sqrt(k.Damping)
	if k.PiCorrection {
		dIn, dOut := l.Dims()
		gA, gG = piCorrection(st.aFactor.Trace(), dIn, st.gFactor.Trace(), dOut, k.Damping)
	}
	return invertFactor(st.aFactor, gA, "kfac.A"), invertFactor(st.gFactor, gG, "kfac.G")
}

// stageBroadcast submits the inverse broadcasts (KAISA step 5).
// Comm-optimal layers submit nothing — layerCommOpt is rank-independent,
// so every rank skips the same layers and the canonical collective
// sequence stays matched.
func (k *KFAC) stageBroadcast(i int) {
	pl := &k.plans[i]
	if pl.commOpt {
		return
	}
	k.async.StartBroadcastMat(&pl.aBF, pl.owner, pl.aInv)
	k.async.StartBroadcastMat(&pl.gBF, pl.owner, pl.gInv)
}

func (k *KFAC) waitBroadcast(i int) {
	pl := &k.plans[i]
	if pl.commOpt {
		return
	}
	pl.st.aInv = pl.aBF.Wait()
	pl.st.gInv = pl.gBF.Wait()
}

func (k *KFAC) stageStore(i int) {
	pl := &k.plans[i]
	if pl.commOpt {
		return
	}
	dist.RecordPhase(k.timeline, k.comm.ID(), "kfac", "", dist.PhaseBroadcast, pl.layer, pl.aBF.Dur()+pl.gBF.Dur())
}

// Precondition implements opt.Preconditioner: grad ← A⁻¹ · grad · G⁻¹.
// The layers are independent, so they run through the scheduler as a
// single compute stage.
func (k *KFAC) Precondition() { k.prec.Run(len(k.layers)) }

func (k *KFAC) stagePrecondition(i int) {
	st := k.state[i]
	if st.aInv == nil {
		return
	}
	w := k.layers[i].Weight()
	rows, cols := w.Grad.Dims()
	tmp := mat.GetDense(rows, cols)
	mat.MulInto(tmp, w.Grad, st.gInv)
	mat.MulInto(w.Grad, st.aInv, tmp)
	mat.PutDense(tmp)
}

// StateBytes implements opt.Preconditioner: the per-worker state actually
// held under the active strategy — inverses for every layer, plus running
// factors for the layers this worker stores them for (all layers under
// comm-opt, owned layers under mem-opt; Table IV's O(d²) storage).
func (k *KFAC) StateBytes() int {
	var n int
	for i, l := range k.layers {
		dIn, dOut := l.Dims()
		n += dIn*dIn + dOut*dOut // inverses
		if k.state[i].initialized {
			n += dIn*dIn + dOut*dOut // running factors
		}
	}
	return n * 8
}

// EKFAC refines KFAC by diagonally rescaling in the Kronecker eigenbasis:
// the factors are eigendecomposed and the per-coordinate curvature scale
// is tracked as a running average of the squared gradient projected into
// that basis (George et al., 2018).
type EKFAC struct {
	Damping float64
	Decay   float64

	layers   []nn.KernelLayer
	comm     dist.Comm
	timeline *dist.Timeline
	state    []*ekfacState
}

type ekfacState struct {
	aFactor, gFactor *mat.Dense
	qa, qg           *mat.Dense // eigenbases
	scale            *mat.Dense // running E[(Qaᵀ g Qg)²], dIn×dOut
	initialized      bool
	scaleInit        bool

	// Persistent staging for the freshly computed factors (handed to the
	// communicator, so owned here rather than pooled).
	faBuf, fgBuf *mat.Dense
}

// NewEKFAC builds an EKFAC preconditioner.
func NewEKFAC(net *nn.Network, damping float64, comm dist.Comm, timeline *dist.Timeline) *EKFAC {
	e := &EKFAC{Damping: damping, Decay: 0.95, layers: net.KernelLayers(), comm: comm, timeline: timeline}
	e.state = make([]*ekfacState, len(e.layers))
	for i, l := range e.layers {
		dIn, dOut := l.Dims()
		e.state[i] = &ekfacState{
			aFactor: mat.NewDense(dIn, dIn),
			gFactor: mat.NewDense(dOut, dOut),
			scale:   mat.NewDense(dIn, dOut),
		}
	}
	return e
}

// Name implements opt.Preconditioner.
func (e *EKFAC) Name() string { return "EKFAC" }

// Update implements opt.Preconditioner.
func (e *EKFAC) Update() {
	p := e.comm.Size()
	for i, l := range e.layers {
		a, g := l.Capture()
		if a == nil {
			continue
		}
		m := float64(a.Rows() * p)
		st := e.state[i]

		t0 := time.Now()
		st.faBuf = mat.EnsureDense(st.faBuf, a.Cols(), a.Cols())
		mat.GramTInto(st.faBuf, a)
		fa := st.faBuf.Scale(1 / m)
		st.fgBuf = mat.EnsureDense(st.fgBuf, g.Cols(), g.Cols())
		mat.GramTInto(st.fgBuf, g)
		fg := st.fgBuf.Scale(1 / m)
		dist.RecordPhase(e.timeline, e.comm.ID(), "ekfac", "", dist.PhaseFactorize, i, time.Since(t0))

		t0 = time.Now()
		fa = e.comm.AllReduceMat(fa)
		fg = e.comm.AllReduceMat(fg)
		dist.RecordPhase(e.timeline, e.comm.ID(), "ekfac", "", dist.PhaseGather, i, time.Since(t0))
		if !st.initialized {
			st.aFactor.CopyFrom(fa)
			st.gFactor.CopyFrom(fg)
			st.initialized = true
		} else {
			st.aFactor.Scale(e.Decay).AddScaled(fa, 1-e.Decay)
			st.gFactor.Scale(e.Decay).AddScaled(fg, 1-e.Decay)
		}

		// Eigendecompositions on the owning worker (the expensive step
		// EKFAC adds over KFAC).
		owner := i % p
		var qa, qg *mat.Dense
		if e.comm.ID() == owner {
			t0 = time.Now()
			_, qa = mat.SymEig(st.aFactor)
			_, qg = mat.SymEig(st.gFactor)
			dist.RecordPhase(e.timeline, e.comm.ID(), "ekfac", "", dist.PhaseInvert, i, time.Since(t0))
		}
		t0 = time.Now()
		st.qa = e.comm.BroadcastMat(owner, qa)
		st.qg = e.comm.BroadcastMat(owner, qg)
		dist.RecordPhase(e.timeline, e.comm.ID(), "ekfac", "", dist.PhaseBroadcast, i, time.Since(t0))

		// Refresh the diagonal scale from the current gradient projected
		// into the eigenbasis (pooled scratch; sq = proj∘proj in place).
		w := l.Weight()
		rows, cols := w.Grad.Dims()
		tmp := mat.GetDense(rows, cols)
		mat.MulInto(tmp, w.Grad, st.qg)
		proj := mat.GetDense(rows, cols)
		mat.MulTAInto(proj, st.qa, tmp)
		mat.HadamardInto(proj, proj, proj)
		if !st.scaleInit {
			st.scale.CopyFrom(proj)
			st.scaleInit = true
		} else {
			st.scale.Scale(e.Decay).AddScaled(proj, 1-e.Decay)
		}
		mat.PutDense(tmp)
		mat.PutDense(proj)
	}
}

// Precondition implements opt.Preconditioner.
func (e *EKFAC) Precondition() {
	for i, l := range e.layers {
		st := e.state[i]
		if st.qa == nil {
			continue
		}
		w := l.Weight()
		rows, cols := w.Grad.Dims()
		tmp := mat.GetDense(rows, cols)
		mat.MulInto(tmp, w.Grad, st.qg)
		proj := mat.GetDense(rows, cols)
		mat.MulTAInto(proj, st.qa, tmp)
		pd, sd := proj.Data(), st.scale.Data()
		for j := range pd {
			pd[j] /= sd[j] + e.Damping
		}
		mat.MulTBInto(tmp, proj, st.qg)
		mat.MulInto(w.Grad, st.qa, tmp)
		mat.PutDense(tmp)
		mat.PutDense(proj)
	}
}

// StateBytes implements opt.Preconditioner.
func (e *EKFAC) StateBytes() int {
	var n int
	for _, l := range e.layers {
		dIn, dOut := l.Dims()
		n += 2*(dIn*dIn+dOut*dOut) + dIn*dOut
	}
	return n * 8
}
