// Package sngd implements the standard Sherman-Morrison-Woodbury natural
// gradient method (Eq. 7 of the paper) with the communication-optimized
// distributed schedule of Fig. 1: per-worker factors are all-gathered to
// form the global-batch kernel matrix, the owning worker inverts it, and
// the inverse action is applied through the Khatri-Rao structure without
// materializing the Jacobian. Its per-layer Woodbury core is shared with
// HyLo (internal/core), whose KID/KIS updates are the same step on reduced
// factors.
package sngd

import (
	"time"

	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/sched"
)

// SNGD preconditions gradients with
//
//	(F + αI)⁻¹ g = (1/α) [ g − Uᵀ (A Aᵀ ∘ G Gᵀ + αI)⁻¹ U g ],
//
// where A and G are the global-batch per-sample factors (gathered over all
// workers) and U = A ⊙ G. The kernel has the global batch dimension Pm, so
// the inversion cost grows cubically with scale — the limitation HyLo
// removes.
type SNGD struct {
	// Damping is α.
	Damping float64
	// UseCG replaces the explicit O(M³) kernel inversion with conjugate-
	// gradient solves at preconditioning time: the (damped) kernel itself
	// is broadcast and each apply costs O(k·M²) for k CG iterations.
	UseCG bool
	// CGTol is the CG relative-residual tolerance (default 1e-10).
	CGTol float64

	layers   []nn.KernelLayer
	comm     dist.Comm
	async    *dist.AsyncComm
	timeline *dist.Timeline
	// state holds each layer's Woodbury core; M is the explicit kernel
	// inverse, or the damped kernel itself under UseCG.
	state []*Woodbury

	// Layer-parallel execution (internal/sched): see the HyLo counterpart.
	plans  []sngdPlan
	stages []sched.Stage
	eng    sched.Engine
	prec   *sched.Loop
}

// sngdPlan is one layer's slot in the scheduled pipeline; it persists
// across updates so the embedded futures are reused allocation-free.
type sngdPlan struct {
	layer, owner int
	st           *Woodbury
	a, g         *mat.Dense // this step's captures
	samples      int        // global batch rows the factors normalize over

	aF, gF         dist.GatherFuture
	aParts, gParts []*mat.Dense
	m              *mat.Dense // owner's result; nil off-owner
	mF             dist.MatFuture
}

// New builds an SNGD preconditioner over the network's kernel layers.
func New(net *nn.Network, damping float64, comm dist.Comm, timeline *dist.Timeline) *SNGD {
	s := &SNGD{Damping: damping, layers: net.KernelLayers(), comm: comm, timeline: timeline}
	s.state = newCores(len(s.layers))
	s.prec = sched.NewLoop("precondition", s.stagePrecondition)
	return s
}

func newCores(n int) []*Woodbury {
	cores := make([]*Woodbury, n)
	for i := range cores {
		cores[i] = &Woodbury{}
	}
	return cores
}

// Name implements opt.Preconditioner.
func (s *SNGD) Name() string { return "SNGD" }

// ensureStages builds the pipeline definition once; its closures index
// s.plans.
func (s *SNGD) ensureStages() {
	if s.stages != nil {
		return
	}
	s.stages = []sched.Stage{
		{Name: "normalize", Fn: s.stageNormalize},
		{Name: "gather", Comm: true, Fn: s.stageGather},
		{Name: "invert", Wait: s.waitGather, Fn: s.stageInvert},
		{Name: "broadcast", Comm: true, Fn: s.stageBroadcast},
		{Name: "store", Wait: s.waitBroadcast, Fn: s.stageStore},
	}
}

// Update implements opt.Preconditioner: gather per-worker factors, build
// and invert the global kernel on the owning worker, broadcast — executed
// as a scheduled pipeline so one layer's gather is in flight while the
// next layer still normalizes or a previous owner still inverts.
func (s *SNGD) Update() {
	p := s.comm.Size()
	if s.async == nil {
		s.async = dist.Async(s.comm)
	}
	s.ensureStages()
	s.plans = s.plans[:0]
	for i, l := range s.layers {
		a, g := l.Capture()
		if a == nil {
			continue
		}
		s.plans = append(s.plans, sngdPlan{
			layer: i, owner: i % p, st: s.state[i], a: a, g: g, samples: a.Rows() * p,
		})
	}
	sched.Run(&s.eng, len(s.plans), s.stages)
}

func (s *SNGD) stageNormalize(i int) {
	pl := &s.plans[i]
	pl.st.Normalize(pl.a, pl.g, pl.samples)
}

// stageGather submits the factor all-gathers (Fig. 1 step 2).
func (s *SNGD) stageGather(i int) {
	pl := &s.plans[i]
	s.async.StartAllGatherMat(&pl.aF, pl.st.An)
	s.async.StartAllGatherMat(&pl.gF, pl.st.Gn)
}

func (s *SNGD) waitGather(i int) {
	pl := &s.plans[i]
	pl.aParts = pl.aF.Wait()
	pl.gParts = pl.gF.Wait()
}

// stageInvert assembles the global factors and, on the owning worker,
// inverts the global kernel (or just assembles it under UseCG).
func (s *SNGD) stageInvert(i int) {
	pl := &s.plans[i]
	st := pl.st
	dist.RecordPhase(s.timeline, s.comm.ID(), "sngd", "", dist.PhaseGather, pl.layer, pl.aF.Dur()+pl.gF.Dur())
	st.Stack(pl.aParts, pl.gParts)
	pl.m = nil
	if s.comm.ID() != pl.owner {
		return
	}
	t0 := time.Now()
	if s.UseCG {
		// The kernel escapes into long-lived state under CG: hand it over
		// un-pooled so the state never holds pool-owned storage.
		k := st.Kernel(s.Damping)
		pl.m = k.Clone()
		mat.PutDense(k)
	} else {
		pl.m = st.InvertKernel(s.Damping, "sngd.kernel")
	}
	dist.RecordPhase(s.timeline, s.comm.ID(), "sngd", "", dist.PhaseInvert, pl.layer, time.Since(t0))
}

// stageBroadcast submits the inverted-kernel broadcast (Fig. 1 step 4).
func (s *SNGD) stageBroadcast(i int) {
	pl := &s.plans[i]
	s.async.StartBroadcastMat(&pl.mF, pl.owner, pl.m)
}

func (s *SNGD) waitBroadcast(i int) {
	pl := &s.plans[i]
	pl.st.M = pl.mF.Wait()
}

func (s *SNGD) stageStore(i int) {
	pl := &s.plans[i]
	dist.RecordPhase(s.timeline, s.comm.ID(), "sngd", "", dist.PhaseBroadcast, pl.layer, pl.mF.Dur())
}

// Precondition implements opt.Preconditioner, applying Eq. (7) through the
// Khatri-Rao structure. The layers are independent, so they run through
// the scheduler as a single compute stage.
func (s *SNGD) Precondition() { s.prec.Run(len(s.layers)) }

func (s *SNGD) stagePrecondition(i int) {
	st := s.state[i]
	if st.M == nil {
		return
	}
	g := s.layers[i].Weight().Grad.Data()
	if !s.UseCG {
		st.Apply(g, s.Damping)
		return
	}
	tol := s.CGTol
	if tol <= 0 {
		tol = 1e-10
	}
	y := st.project(g)
	z, _ := mat.CG(st.M, y, tol, 20*len(y))
	st.correct(g, z, s.Damping)
}

// StateBytes implements opt.Preconditioner: the gathered global factors
// plus the Pm×Pm kernel inverse per layer — Table I's
// O(Pmd + P²m² + d²) storage row.
func (s *SNGD) StateBytes() int { return coresBytes(s.state) }

func coresBytes(cores []*Woodbury) int {
	var n int
	for _, st := range cores {
		n += st.StateBytes()
	}
	return n
}

// LocalSNGD is the SENG-style variant the paper's footnote 4 discusses:
// each worker preconditions with the kernel of its LOCAL batch only and
// never communicates second-order information (gradients are still
// averaged by the trainer). It is cheap at scale but no longer a standard
// NGD method — the preconditioner drifts across workers.
type LocalSNGD struct {
	// Damping is α.
	Damping float64

	layers []nn.KernelLayer
	state  []*Woodbury

	// Comm-free per-layer work: one compute stage each for Update and
	// Precondition.
	upd, prec *sched.Loop
}

// NewLocal builds the communication-free SENG-style preconditioner.
func NewLocal(net *nn.Network, damping float64) *LocalSNGD {
	s := &LocalSNGD{Damping: damping, layers: net.KernelLayers()}
	s.state = newCores(len(s.layers))
	s.upd = sched.NewLoop("local-kernel", s.stageUpdate)
	s.prec = sched.NewLoop("precondition", s.stagePrecondition)
	return s
}

// Name implements opt.Preconditioner.
func (s *LocalSNGD) Name() string { return "SENG-local" }

// Update implements opt.Preconditioner: invert each layer's local kernel.
// Entirely communication-free, so the whole update is one parallel stage.
func (s *LocalSNGD) Update() { s.upd.Run(len(s.layers)) }

func (s *LocalSNGD) stageUpdate(i int) {
	a, g := s.layers[i].Capture()
	if a == nil {
		return
	}
	st := s.state[i]
	// Nothing is gathered: the normalized local factors are the stack.
	st.Normalize(a, g, a.Rows())
	st.A, st.G = st.An, st.Gn
	st.M = st.InvertKernel(s.Damping, "sngd.local.kernel")
}

// Precondition implements opt.Preconditioner (Eq. 7 on local factors).
func (s *LocalSNGD) Precondition() { s.prec.Run(len(s.layers)) }

func (s *LocalSNGD) stagePrecondition(i int) {
	st := s.state[i]
	if st.M == nil {
		return
	}
	st.Apply(s.layers[i].Weight().Grad.Data(), s.Damping)
}

// StateBytes implements opt.Preconditioner.
func (s *LocalSNGD) StateBytes() int { return coresBytes(s.state) }
