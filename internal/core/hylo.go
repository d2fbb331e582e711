package core

import (
	"math"
	"strconv"
	"time"

	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/numerics"
	"repro/internal/sched"
	"repro/internal/sngd"
	"repro/internal/telemetry"
)

// HyLo is the hybrid low-rank natural-gradient preconditioner
// (Algorithm 1). It implements opt.Preconditioner plus an epoch hook the
// trainer calls so the gradient-based switching heuristic (Eq. 10) can
// pick KID or KIS for the coming epoch.
type HyLo struct {
	// Damping is α in Eqs. (8) and (9).
	Damping float64
	// RankFrac sets the reduced rank r as a fraction of the global batch
	// (the paper uses 10%).
	RankFrac float64
	// Policy selects the per-epoch mode; defaults to the paper's
	// GradientSwitch with η = 0.25 when nil.
	Policy SwitchPolicy
	// Sketch selects the randomized-ID fast path for KID epochs:
	// SketchOff (exact pivoted-QR ID), SketchGauss (the Gaussian-sketch
	// randomized ID of reference [33]), or SketchSRHT. An
	// unhealthy sketch — condition estimate above numerics.CondLimit() or
	// reconstruction-residual overshoot — falls back per layer to the
	// exact KID factorization (numerics.RungExact). The fallback is pure
	// local compute: factor shapes and the collective sequence are
	// unchanged, so workers cannot desynchronize.
	Sketch Sketch
	// Oversample is the randomized-ID oversampling parameter (default
	// DefaultOversample when zero).
	Oversample int
	// AdaptiveRank replaces the fixed per-worker rank ρ = r/P with the
	// error-driven rule of AdaptiveKIDRank (KID epochs only): the rank is
	// the smallest value whose ID residual falls below AdaptiveTol,
	// capped at ρ. Each worker adapts independently; the gathered factor
	// sizes may differ across workers, which the gather/block-diagonal
	// assembly handles naturally.
	AdaptiveRank bool
	// AdaptiveTol is the relative residual tolerance (default 1e-3).
	AdaptiveTol float64
	// CommMantissaBits, when in [1, 51], quantizes the factors to that
	// many mantissa bits before the gather — simulating the
	// reduced-precision collectives of production implementations (Ueno et
	// al.'s 21-bit format uses 12 mantissa bits). 0 disables quantization.
	CommMantissaBits int
	// IDTol is the relative numerical-rank tolerance of the interpolative
	// decomposition: pivoted-QR diagonals below IDTol·|R(0,0)| truncate the
	// KID rank (duplicated batch rows collapse cleanly instead of feeding a
	// singular residual solve). 0 means DefaultIDTol; negative disables
	// truncation.
	IDTol float64

	layers   []nn.KernelLayer
	comm     dist.Comm
	async    *dist.AsyncComm
	timeline *dist.Timeline
	rng      *mat.RNG
	// policyRNG drives the switching policy. It is seeded identically on
	// every worker: the per-epoch mode is a COLLECTIVE decision — workers
	// choosing different modes would issue mismatched collective sequences
	// and deadlock, exactly as divergent control flow would under NCCL.
	policyRNG *mat.RNG
	state     []*hyloState

	// Layer-parallel execution (internal/sched): plans carries the
	// per-layer pipeline state for the current Update, stages the pipeline
	// definition (built once — its closures index plans), eng its reusable
	// scheduling state, and prec the single-stage Precondition loop.
	plans  []hyloPlan
	stages []sched.Stage
	eng    sched.Engine
	prec   *sched.Loop

	mode       Mode
	delta      [][]float64 // per-layer accumulated gradient Δₑ
	prevNorms  []float64   // history of ‖Δₑ‖
	epochModes []Mode      // record of chosen modes (Table III / analysis)
}

type hyloState struct {
	// Woodbury is the shared SNGD core: An/Gn the normalized local
	// factors, A/G the gathered reduced factors Aˢ/Gˢ, and M the reduced
	// kernel-space matrix — KID: M = Y − Y(K̂⁻¹+Y)⁻¹Y; KIS: (K̂+αI)⁻¹.
	sngd.Woodbury

	// Persistent workspaces reused across iterations. asLoc/gsLoc/yLoc
	// hold the local reduced factors and mbuf the owner's KID result; they
	// are handed to the communicator, so they must stay owned by this
	// state rather than cycle through the pool. yblk holds the
	// block-diagonal Y assembly.
	asLoc, gsLoc, yLoc *mat.Dense
	yblk, mbuf         *mat.Dense
	sketch             kidSketchWS // sketched-KID P/S workspace
}

// hyloPlan is one layer's slot in the scheduled pipeline: inputs prepared
// on the main goroutine (rho, KIS sample), the local factors handed to the
// gather, the in-flight collective futures, and the owner's inversion
// result. Plans persist across updates so the embedded futures and slices
// are reused allocation-free.
type hyloPlan struct {
	layer, rho, owner int
	st                *hyloState

	// KIS sample drawn on the main goroutine in layer order (the only
	// RNG-consuming step of the KIS pipeline).
	kisIdx   []int
	kisCoeff []float64

	// Local reduced factors produced by the factorize stage.
	as, gs, y *mat.Dense

	aF, gF, yF             dist.GatherFuture
	mF                     dist.MatFuture
	aParts, gParts, yParts []*mat.Dense
	m                      *mat.Dense // owner's result; nil off-owner
}

// NewHyLo builds the preconditioner over the network's kernel layers.
// comm may be dist.Local(); timeline is optional; rng drives KIS sampling
// and the Random ablation policy.
func NewHyLo(net *nn.Network, damping, rankFrac float64, comm dist.Comm, timeline *dist.Timeline, rng *mat.RNG) *HyLo {
	h := &HyLo{
		Damping:   damping,
		RankFrac:  rankFrac,
		Policy:    GradientSwitch{Eta: 0.25},
		layers:    net.KernelLayers(),
		comm:      comm,
		async:     dist.Async(comm),
		timeline:  timeline,
		rng:       rng,
		policyRNG: mat.NewRNG(0xC0FFEE),
		mode:      ModeKID,
	}
	h.state = make([]*hyloState, len(h.layers))
	h.delta = make([][]float64, len(h.layers))
	for i, l := range h.layers {
		h.state[i] = &hyloState{}
		dIn, dOut := l.Dims()
		h.delta[i] = make([]float64, dIn*dOut)
	}
	h.prec = sched.NewLoop("precondition", h.stagePrecondition)
	return h
}

// Name implements opt.Preconditioner.
func (h *HyLo) Name() string { return "HyLo" }

// idTol resolves the configured interpolative-decomposition tolerance.
func (h *HyLo) idTol() float64 {
	if h.IDTol == 0 {
		return DefaultIDTol
	}
	if h.IDTol < 0 {
		return 0
	}
	return h.IDTol
}

// Mode returns the reduction currently in use.
func (h *HyLo) Mode() Mode { return h.mode }

// EpochModes returns the mode chosen for each epoch so far.
func (h *HyLo) EpochModes() []Mode { return h.epochModes }

// ModeStrings returns EpochModes rendered as strings; the trainer uses it
// to report the switching pattern without importing this package.
func (h *HyLo) ModeStrings() []string {
	out := make([]string, len(h.epochModes))
	for i, m := range h.epochModes {
		out[i] = m.String()
	}
	return out
}

// OnEpochStart implements the trainer's epoch hook: it folds the finished
// epoch's accumulated gradient into the norm history, computes the
// relative change R (Eq. 10), and lets the policy choose the mode.
func (h *HyLo) OnEpochStart(epoch int, lrDecayed bool) {
	if epoch > 0 {
		// Close out Δ of the epoch that just finished. The per-layer norms
		// are scaled sums of squares (mat.Norm2) combined with Hypot, so a
		// gradient component near √MaxFloat64 cannot overflow the
		// accumulator the way the naive Σv² did.
		var total float64
		for _, d := range h.delta {
			total = math.Hypot(total, mat.Norm2(d))
			for j := range d {
				d[j] = 0
			}
		}
		h.prevNorms = append(h.prevNorms, total)
	}
	ratio := math.NaN()
	if n := len(h.prevNorms); n >= 2 {
		d1, d2 := h.prevNorms[n-1], h.prevNorms[n-2]
		if d2 > 0 {
			ratio = math.Abs(d1-d2) / d2
		}
	}
	policy := h.Policy
	if policy == nil {
		policy = GradientSwitch{Eta: 0.25}
	}
	prev := h.mode
	h.mode = policy.Choose(epoch, lrDecayed, ratio, h.policyRNG)
	h.epochModes = append(h.epochModes, h.mode)
	// Observability: count KID↔KIS transitions and mark them on the
	// trace (rank 0 speaks for the collective decision).
	if telemetry.Enabled() && h.comm.ID() == 0 {
		telemetry.SetGauge("hylo_mode_kis", boolGauge(h.mode == ModeKIS))
		if epoch > 0 && h.mode != prev {
			telemetry.IncCounter(telemetry.MetricModeSwitches, 1)
			telemetry.Instant("hylo_mode_switch", h.comm.ID(),
				telemetry.Label{Key: "from", Value: prev.String()},
				telemetry.Label{Key: "to", Value: h.mode.String()},
				telemetry.Label{Key: "epoch", Value: strconv.Itoa(epoch)})
		}
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ensureStages builds the pipeline definition once. The closures capture
// only h and index h.plans, so the same slice serves every Update.
func (h *HyLo) ensureStages() {
	if h.stages != nil {
		return
	}
	h.stages = []sched.Stage{
		{Name: "factorize", Fn: h.stageFactorize},
		{Name: "gather", Comm: true, Fn: h.stageGather},
		{Name: "invert", Wait: h.waitGather, Fn: h.stageInvert},
		{Name: "broadcast", Comm: true, Fn: h.stageBroadcast},
		{Name: "store", Wait: h.waitBroadcast, Fn: h.stageStore},
	}
}

// Update implements opt.Preconditioner: lines 5-11 (KID) or 16-22 (KIS) of
// Algorithm 1 for every layer, executed as a scheduled pipeline — layer
// i's gather can be in flight while layer i+1 factorizes. Everything
// consuming the shared sampling RNG happens here on the calling goroutine
// in layer order (KIS sampling) or in an Ordered stage (randomized KID),
// so the result is bit-identical to the sequential schedule.
func (h *HyLo) Update() {
	p := h.comm.Size()
	if h.async == nil {
		h.async = dist.Async(h.comm)
	}
	h.ensureStages()
	h.plans = h.plans[:0]
	for i, l := range h.layers {
		a, g := l.Capture()
		if a == nil {
			continue
		}
		mLocal := a.Rows()
		mGlob := mLocal * p
		r := int(h.RankFrac * float64(mGlob))
		if r < 1 {
			r = 1
		}
		rho := r / p // per-worker reduced rows ρ = r/P
		if rho < 1 {
			rho = 1
		}
		if rho > mLocal {
			rho = mLocal
		}
		// Normalize so the reduced kernel approximates the mean Fisher
		// kernel over the global batch.
		st := h.state[i]
		st.Normalize(a, g, mGlob)
		h.plans = append(h.plans, hyloPlan{layer: i, rho: rho, owner: i % p, st: st})
		if h.mode == ModeKIS {
			pl := &h.plans[len(h.plans)-1]
			pl.kisIdx, pl.kisCoeff = kisSample(h.rng, st.An, st.Gn, rho, true)
		}
	}
	// The randomized-ID sketch draws from the shared RNG inside the
	// factorize stage; Ordered serializes those draws in layer order.
	h.stages[0].Ordered = h.mode == ModeKID && h.Sketch != SketchOff
	sched.Run(&h.eng, len(h.plans), h.stages)
}

// stageFactorize runs the local reduction for one layer (Algorithm 2 for
// KID, the row selection of Algorithm 3 for KIS) into state-owned
// persistent buffers: they are handed to the communicator in the next
// stage, so they must not cycle through the pool, and reusing them keeps
// the steady state allocation-free.
func (h *HyLo) stageFactorize(i int) {
	pl := &h.plans[i]
	st := pl.st
	t0 := time.Now()
	if h.mode == ModeKID {
		rho := pl.rho
		if h.AdaptiveRank {
			tol := h.AdaptiveTol
			if tol <= 0 {
				tol = 1e-3
			}
			if ar := AdaptiveKIDRank(st.An, st.Gn, tol, rho); ar < rho {
				rho = ar
			}
		}
		var facErr error
		if sk := h.Sketch; sk != SketchOff {
			over := h.Oversample
			if over <= 0 {
				over = DefaultOversample
			}
			t1 := time.Now()
			st.asLoc, st.gsLoc, st.yLoc, facErr = kidFactorsSketchInto(&st.sketch, st.asLoc, st.gsLoc, st.yLoc, h.rng, st.An, st.Gn, rho, h.Damping, over, sk)
			if telemetry.Enabled() {
				telemetry.IncCounter(telemetry.MetricKIDSketchNS, time.Since(t1).Nanoseconds(),
					telemetry.Label{Key: "sketch", Value: sk.String()})
			}
			if facErr != nil {
				// The guard distrusts this sketch (ill-conditioned basis or
				// residual overshoot): redo the layer with the exact
				// pivoted-QR KID — the RungExact rung of the ladder. Purely
				// local compute with identical factor shapes, so the
				// collective sequence is unchanged; the sketch consumed its
				// RNG draws either way, keeping the stream deterministic.
				numerics.RecordFallback("hylo.kid.sketch", numerics.RungExact, facErr.Error())
				if telemetry.Enabled() {
					telemetry.IncCounter(telemetry.MetricKIDSketchFallbacks, 1,
						telemetry.Label{Key: "sketch", Value: sk.String()})
				}
				st.asLoc, st.gsLoc, st.yLoc, facErr = kidFactorsInto(st.asLoc, st.gsLoc, st.yLoc, st.An, st.Gn, rho, h.Damping, h.idTol())
			}
		} else {
			st.asLoc, st.gsLoc, st.yLoc, facErr = kidFactorsInto(st.asLoc, st.gsLoc, st.yLoc, st.An, st.Gn, rho, h.Damping, h.idTol())
		}
		pl.as, pl.gs, pl.y = st.asLoc, st.gsLoc, st.yLoc
		if facErr != nil {
			// Local KID factorization failed (singular residual beyond the
			// damped retries). Degrade this worker's contribution to the
			// deterministic top-k row selection with a zero Y block: the
			// gather/block-diagonal schedule stays identical across workers
			// — only this block's correction vanishes — so the collective
			// sequence cannot desynchronize. Top-k rather than sampling so
			// the fallback consumes no RNG: it may fire from a concurrent
			// stage without perturbing the shared stream.
			numerics.RecordFallback("hylo.kid.local", numerics.RungKIS, facErr.Error())
			st.asLoc, st.gsLoc = kisTopKInto(st.asLoc, st.gsLoc, st.An, st.Gn, rho)
			st.yLoc = mat.EnsureDense(st.yLoc, st.asLoc.Rows(), st.asLoc.Rows())
			st.yLoc.Zero()
			pl.as, pl.gs, pl.y = st.asLoc, st.gsLoc, st.yLoc
		}
		h.quantize(pl.as, pl.gs, pl.y)
	} else {
		st.asLoc, st.gsLoc = kisSelectInto(st.asLoc, st.gsLoc, st.An, st.Gn, pl.kisIdx, pl.kisCoeff)
		pl.as, pl.gs = st.asLoc, st.gsLoc
		h.quantize(pl.as, pl.gs)
	}
	dist.RecordPhase(h.timeline, h.comm.ID(), "hylo", h.mode.String(), dist.PhaseFactorize, pl.layer, time.Since(t0))
}

// stageGather submits the factor all-gathers (lines 7 / 18) without
// blocking; the dispatcher issues them in canonical layer order.
func (h *HyLo) stageGather(i int) {
	pl := &h.plans[i]
	h.async.StartAllGatherMat(&pl.aF, pl.as)
	h.async.StartAllGatherMat(&pl.gF, pl.gs)
	if h.mode == ModeKID {
		h.async.StartAllGatherMat(&pl.yF, pl.y)
	}
}

// waitGather drains this layer's gather futures (tokenless — waiting on
// communication must not hold a compute token).
func (h *HyLo) waitGather(i int) {
	pl := &h.plans[i]
	pl.aParts = pl.aF.Wait()
	pl.gParts = pl.gF.Wait()
	if h.mode == ModeKID {
		pl.yParts = pl.yF.Wait()
	}
}

// stageInvert assembles the gathered factors and, on the owning worker
// (round-robin layer % P, lines 9-10 / 20-21), inverts the reduced system.
func (h *HyLo) stageInvert(i int) {
	pl := &h.plans[i]
	st := pl.st
	gdur := pl.aF.Dur() + pl.gF.Dur()
	if h.mode == ModeKID {
		gdur += pl.yF.Dur()
	}
	dist.RecordPhase(h.timeline, h.comm.ID(), "hylo", h.mode.String(), dist.PhaseGather, pl.layer, gdur)
	st.Stack(pl.aParts, pl.gParts)
	pl.m = nil
	if h.comm.ID() != pl.owner {
		return
	}
	t0 := time.Now()
	if h.mode == ModeKID {
		// Y is block-diagonal across workers (line 7); build
		// M = Y − Y(K̂⁻¹+Y)⁻¹Y in the equivalent single-inverse form
		// M = (I + Y·K̂)⁻¹ Y, which avoids inverting a possibly
		// rank-deficient K̂.
		ybr, ybc := 0, 0
		for _, b := range pl.yParts {
			ybr += b.Rows()
			ybc += b.Cols()
		}
		st.yblk = mat.EnsureDense(st.yblk, ybr, ybc)
		st.yblk.Zero()
		yBlk := mat.BlockDiagInto(st.yblk, pl.yParts...)
		rtot := st.A.Rows()
		khat := st.Kernel(0)
		iyk := mat.GetDense(rtot, rtot)
		mat.MulInto(iyk, yBlk, khat)
		iyk.AddDiag(1)
		inv := mat.GetDense(rtot, rtot)
		// The result is handed to the broadcast, so it lives in a
		// state-owned persistent buffer rather than the pool. All ladder
		// rungs below produce the same rtot×rtot shape, keeping the
		// broadcast sequence identical no matter which rung fires.
		st.mbuf = mat.EnsureDense(st.mbuf, rtot, rtot)
		solved := false
		if err := invGeneralDampedInto(inv, iyk, "hylo.kid.inner"); err == nil {
			mat.MulInto(st.mbuf, inv, yBlk)
			solved = st.mbuf.IsFinite()
			if !solved {
				numerics.RecordFallback("hylo.kid.inner", numerics.RungKIS,
					"M = (I+YK̂)⁻¹Y not finite")
			}
		} else {
			numerics.RecordFallback("hylo.kid.inner", numerics.RungKIS, err.Error())
		}
		if !solved {
			// KIS-form rung: M = (K̂+αI)⁻¹ drops the Y correction but keeps
			// a genuine curvature preconditioner from the gathered factors.
			kinv, _, retries, _, err := mat.InvSPDDampedChecked(khat, h.Damping)
			if retries > 0 {
				numerics.AddRetries("hylo.kid.inner", retries)
			}
			if err == nil && kinv.IsFinite() {
				st.mbuf.CopyFrom(kinv)
				solved = true
			}
		}
		if !solved {
			// Identity rung: M = 0 makes the correction vanish, so the
			// update degrades to the plain scaled-gradient step g/α.
			numerics.RecordFallback("hylo.kid.inner", numerics.RungIdentity,
				"KIS-form reduced kernel unsolvable")
			st.mbuf.Zero()
		}
		pl.m = st.mbuf
		mat.PutDense(inv)
		mat.PutDense(khat)
		mat.PutDense(iyk)
	} else {
		// M = (K̂+αI)⁻¹ with K̂ = AˢAˢᵀ∘GˢGˢᵀ, degrading to M = 0 in the
		// same shape on an unsolvable kernel.
		pl.m = st.InvertKernel(h.Damping, "hylo.kis.inner")
	}
	dist.RecordPhase(h.timeline, h.comm.ID(), "hylo", h.mode.String(), dist.PhaseInvert, pl.layer, time.Since(t0))
}

// stageBroadcast submits the result broadcast (lines 11 / 22).
func (h *HyLo) stageBroadcast(i int) {
	pl := &h.plans[i]
	h.async.StartBroadcastMat(&pl.mF, pl.owner, pl.m)
}

// waitBroadcast drains the broadcast future and installs the result.
func (h *HyLo) waitBroadcast(i int) {
	pl := &h.plans[i]
	pl.st.M = pl.mF.Wait()
}

// stageStore attributes the broadcast's execution time to the Fig. 7
// communication bucket.
func (h *HyLo) stageStore(i int) {
	pl := &h.plans[i]
	dist.RecordPhase(h.timeline, h.comm.ID(), "hylo", h.mode.String(), dist.PhaseBroadcast, pl.layer, pl.mF.Dur())
}

// quantize reduces the factors' mantissa precision before communication
// when CommMantissaBits is configured.
func (h *HyLo) quantize(ms ...*mat.Dense) {
	if h.CommMantissaBits <= 0 || h.CommMantissaBits >= 52 {
		return
	}
	for _, m := range ms {
		dist.QuantizeBits(m, h.CommMantissaBits)
	}
}

// Precondition implements opt.Preconditioner, applying Eq. (8) (KID) or
// Eq. (9) (KIS) — both have the form (1/α)(g − Uˢᵀ M Uˢ g) and differ only
// in M. It also accumulates Δₑ += g for the switching heuristic. The layers
// are independent (per-layer state, per-layer gradients, no collectives),
// so they run through the scheduler as a single compute stage.
func (h *HyLo) Precondition() { h.prec.Run(len(h.layers)) }

func (h *HyLo) stagePrecondition(i int) {
	l := h.layers[i]
	w := l.Weight()
	gd := w.Grad.Data()
	// Accumulate the raw gradient before transforming (Alg. 1, l. 13).
	acc := h.delta[i]
	for j, v := range gd {
		acc[j] += v
	}
	if st := h.state[i]; st.M != nil {
		st.Apply(gd, h.Damping)
	}
}

// StateBytes implements opt.Preconditioner: the gathered r×d factors plus
// the r×r reduced kernel per layer — Table I's O(rd + r² + d²) storage.
func (h *HyLo) StateBytes() int {
	var n int
	for _, st := range h.state {
		n += st.StateBytes()
	}
	return n
}
