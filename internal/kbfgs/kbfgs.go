// Package kbfgs implements KBFGS-L, the limited-memory Kronecker-block
// quasi-Newton baseline (Goldfarb, Ren & Bahamou, 2020). Each layer's
// Fisher-block inverse action is approximated by a damped limited-memory
// BFGS two-loop recursion over (Δw, Δg) curvature pairs harvested at
// update iterations.
package kbfgs

import (
	"math"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/telemetry"

	"repro/internal/numerics"
)

// KBFGSL preconditions each layer gradient with an L-BFGS inverse-Hessian
// estimate built from per-layer curvature pairs. Pairs are Powell-damped so
// the estimate stays positive definite even on the nonconvex DNN loss.
type KBFGSL struct {
	// History is the limited-memory window (pairs kept per layer).
	History int
	// Damping regularizes the curvature pairs (λ in y ← y + λ·s).
	Damping float64

	layers []nn.KernelLayer
	state  []*lbfgsState

	// Comm-free per-layer work: one compute stage each for the pair
	// harvest and the two-loop recursion (internal/sched).
	upd, prec *sched.Loop
}

type lbfgsState struct {
	prevW, prevG []float64
	s, y         [][]float64
	rho          []float64
}

// NewKBFGSL builds the preconditioner over the network's kernel layers.
func NewKBFGSL(net *nn.Network, damping float64, history int) *KBFGSL {
	k := &KBFGSL{History: history, Damping: damping, layers: net.KernelLayers()}
	k.state = make([]*lbfgsState, len(k.layers))
	for i := range k.state {
		k.state[i] = &lbfgsState{}
	}
	k.upd = sched.NewLoop("curvature_pairs", k.stageHarvest)
	k.prec = sched.NewLoop("two_loop", k.stageTwoLoop)
	return k
}

// Name implements opt.Preconditioner.
func (k *KBFGSL) Name() string { return "KBFGS-L" }

// Update implements opt.Preconditioner: harvest a damped curvature pair
// per layer from the weight and gradient deltas since the last update.
func (k *KBFGSL) Update() {
	// KBFGS-L runs single-process; its trace lane is rank 0. Pair harvest
	// is this method's analogue of the factorization phase. Layers are
	// independent (no communication, no shared rng), so the harvest runs
	// through the scheduler as a single compute stage.
	defer telemetry.Span("curvature_pairs", 0,
		telemetry.Label{Key: "optimizer", Value: "kbfgs"})()
	k.upd.Run(len(k.layers))
}

func (k *KBFGSL) stageHarvest(i int) {
	{
		l := k.layers[i]
		st := k.state[i]
		w := flat(l.Weight().W)
		g := flat(l.Weight().Grad)
		if st.prevW != nil {
			s := sub(w, st.prevW)
			y := sub(g, st.prevG)
			// Levenberg-style damping keeps sᵀy > 0.
			for j := range y {
				y[j] += k.Damping * s[j]
			}
			sy := dot(s, y)
			ss := dot(s, s)
			if sy > 1e-12*ss && ss > 0 {
				st.s = append(st.s, s)
				st.y = append(st.y, y)
				st.rho = append(st.rho, 1/sy)
				if len(st.s) > k.History {
					// Recycle the evicted pair's storage.
					mat.PutFloats(st.s[0])
					mat.PutFloats(st.y[0])
					st.s = st.s[1:]
					st.y = st.y[1:]
					st.rho = st.rho[1:]
				}
			} else {
				// Rejected pair: return the scratch immediately.
				mat.PutFloats(s)
				mat.PutFloats(y)
			}
		}
		// Recycle the previous snapshots now that the deltas are computed.
		mat.PutFloats(st.prevW)
		mat.PutFloats(st.prevG)
		st.prevW = w
		st.prevG = g
	}
}

// Precondition implements opt.Preconditioner: the standard two-loop
// recursion applied to each layer's flattened gradient.
func (k *KBFGSL) Precondition() {
	// The two-loop recursion is the inverse-application phase.
	defer telemetry.Span("two_loop_recursion", 0,
		telemetry.Label{Key: "optimizer", Value: "kbfgs"})()
	k.prec.Run(len(k.layers))
}

func (k *KBFGSL) stageTwoLoop(i int) {
	{
		l := k.layers[i]
		st := k.state[i]
		if len(st.s) == 0 {
			return
		}
		grad := l.Weight().Grad
		q := flat(grad)
		n := len(st.s)
		alpha := mat.GetFloats(n)
		for j := n - 1; j >= 0; j-- {
			alpha[j] = st.rho[j] * dot(st.s[j], q)
			axpy(q, st.y[j], -alpha[j])
		}
		// Initial scaling H₀ = (sᵀy / yᵀy) I from the newest pair; a
		// degenerate pair (yᵀy = 0, or non-finite dots) falls back to H₀ = I
		// rather than letting a NaN/Inf scale poison the whole direction.
		gammaN := dot(st.s[n-1], st.y[n-1]) / dot(st.y[n-1], st.y[n-1])
		if math.IsNaN(gammaN) || math.IsInf(gammaN, 0) || gammaN <= 0 {
			gammaN = 1
		}
		for j := range q {
			q[j] *= gammaN
		}
		for j := 0; j < n; j++ {
			beta := st.rho[j] * dot(st.y[j], q)
			axpy(q, st.s[j], alpha[j]-beta)
		}
		// A poisoned curvature pair can still make the recursion emit
		// non-finite coordinates: degrade to the raw (scrubbed) gradient —
		// the identity rung of the degradation ladder — instead of storing
		// NaNs into the step.
		if !mat.AllFinite(q) {
			numerics.RecordFallback("kbfgs.twoloop", numerics.RungIdentity,
				"two-loop recursion produced non-finite direction")
			copy(q, grad.Data())
			if scrubbed := mat.ScrubNonFinite(q); scrubbed > 0 {
				numerics.AddScrubs(scrubbed)
			}
		}
		copy(grad.Data(), q)
		mat.PutFloats(alpha)
		mat.PutFloats(q)
	}
}

// StateBytes implements opt.Preconditioner: history pairs + previous
// iterate/gradient per layer.
func (k *KBFGSL) StateBytes() int {
	var n int
	for i, l := range k.layers {
		dIn, dOut := l.Dims()
		sz := dIn * dOut
		st := k.state[i]
		n += sz * (2 + 2*len(st.s))
	}
	return n * 8
}

// flat returns a pooled copy of the matrix contents; callers own the slice
// and are responsible for returning it with mat.PutFloats.
func flat(m *mat.Dense) []float64 {
	out := mat.GetFloats(len(m.Data()))
	copy(out, m.Data())
	return out
}

// sub returns the pooled difference a − b; callers own the slice.
func sub(a, b []float64) []float64 {
	out := mat.GetFloats(len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func axpy(dst, src []float64, c float64) {
	for i := range dst {
		dst[i] += c * src[i]
	}
}
