package sngd

import (
	"math"

	"repro/internal/mat"
	"repro/internal/numerics"
)

// Woodbury is one layer's Sherman-Morrison-Woodbury core. SNGD (Eq. 7),
// its SENG-style local variant, and HyLo's KID and KIS updates (Eqs. 8–9)
// all precondition as
//
//	g ← (1/α) (g − Uᵀ M U g),  U = A ⊙ G,
//
// and differ only in which per-sample factors are stacked into A, G and
// how M is built. The core holds what they share: the normalized local
// factor copies, the stacked factors, M, and the apply scratch.
type Woodbury struct {
	// An, Gn are the normalized local factor copies. They are handed to
	// the communicator, so they stay owned here rather than pooled.
	An, Gn *mat.Dense
	// A, G are the stacked (gathered) factors U is built from.
	A, G *mat.Dense
	// M is the kernel-space matrix of the apply; nil until an update
	// installs one.
	M *mat.Dense

	y, z, corr []float64 // Apply scratch, reused across iterations
}

// Normalize stores a and g scaled by samples^(-1/4) in An, Gn, so the
// kernel AAᵀ∘GGᵀ represents the mean Fisher over samples rows (K scales
// by 1/samples, U by 1/√samples).
func (w *Woodbury) Normalize(a, g *mat.Dense, samples int) {
	scale := math.Pow(float64(samples), -0.25)
	w.An = mat.EnsureDense(w.An, a.Rows(), a.Cols())
	w.An.CopyFrom(a)
	w.An.Scale(scale)
	w.Gn = mat.EnsureDense(w.Gn, g.Rows(), g.Cols())
	w.Gn.CopyFrom(g)
	w.Gn.Scale(scale)
}

// Stack assembles the gathered factor parts (one per rank, in rank order)
// into A and G.
func (w *Woodbury) Stack(aParts, gParts []*mat.Dense) {
	w.A = stackInto(w.A, aParts)
	w.G = stackInto(w.G, gParts)
}

// stackInto vertically stacks parts into a persistent, pool-backed
// destination (the workspace analogue of mat.VStack).
func stackInto(dst *mat.Dense, parts []*mat.Dense) *mat.Dense {
	rows := 0
	for _, p := range parts {
		rows += p.Rows()
	}
	dst = mat.EnsureDense(dst, rows, parts[0].Cols())
	mat.VStackInto(dst, parts...)
	return dst
}

// Kernel returns the pooled kernel AAᵀ∘GGᵀ + damping·I of the stacked
// factors; the caller hands it back with mat.PutDense.
func (w *Woodbury) Kernel(damping float64) *mat.Dense {
	n := w.A.Rows()
	k := mat.GetDense(n, n)
	mat.KernelMatrixInto(k, w.A, w.G)
	k.AddDiag(damping)
	return k
}

// InvertKernel returns (AAᵀ∘GGᵀ + αI)⁻¹, degradation-aware: bounded
// Levenberg-Marquardt escalation, then M = 0 (the plain g/α step) when no
// damping stabilizes the solve — the zero matrix keeps the broadcast shape
// matched across workers. Retries and fallbacks are recorded under site.
// The result escapes into long-lived state, so it is not pooled.
func (w *Woodbury) InvertKernel(damping float64, site string) *mat.Dense {
	k := w.Kernel(damping)
	defer mat.PutDense(k)
	kinv, _, retries, _, err := mat.InvSPDDampedChecked(k, 0)
	if retries > 0 {
		numerics.AddRetries(site, retries)
	}
	if err == nil && kinv.IsFinite() {
		return kinv
	}
	reason := "kernel inverse not finite"
	if err != nil {
		reason = err.Error()
	}
	numerics.RecordFallback(site, numerics.RungIdentity, reason)
	return mat.NewDense(k.Rows(), k.Cols())
}

// Apply preconditions g in place through the Khatri-Rao structure (no
// dIn·dOut × dIn·dOut matrix is formed): g ← (g − Uᵀ M U g)/α.
func (w *Woodbury) Apply(g []float64, damping float64) {
	y := w.project(g)
	w.z = mat.EnsureFloats(w.z, w.M.Rows())
	mat.MulVecInto(w.z, w.M, y)
	w.correct(g, w.z, damping)
}

// project returns U g (one entry per stacked row) in core-owned scratch.
func (w *Woodbury) project(g []float64) []float64 {
	w.y = mat.EnsureFloats(w.y, w.A.Rows())
	mat.KhatriRaoApplyInto(w.y, w.A, w.G, g)
	return w.y
}

// correct finishes the apply for a kernel-space solution z = M U g:
// g ← (g − Uᵀ z)/α.
func (w *Woodbury) correct(g, z []float64, damping float64) {
	w.corr = mat.EnsureFloats(w.corr, len(g))
	mat.KhatriRaoApplyTInto(w.corr, w.A, w.G, z)
	corr := w.corr
	inv := 1 / damping
	for j := range g {
		g[j] = inv * (g[j] - corr[j])
	}
}

// StateBytes is the core's share of a preconditioner's persistent state:
// the stacked factors and M.
func (w *Woodbury) StateBytes() int {
	var n int
	if w.A != nil {
		n += w.A.Rows()*w.A.Cols() + w.G.Rows()*w.G.Cols()
	}
	if w.M != nil {
		n += w.M.Rows() * w.M.Cols()
	}
	return n * 8
}
