package core

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/sngd"
)

func capturedNet(seed uint64, m, in, out int) *nn.Network {
	rng := mat.NewRNG(seed)
	net := nn.NewNetwork(nn.Vec(in), rng, nn.NewLinear(out))
	net.SetCapture(true)
	x := mat.RandN(rng, m, in, 1)
	labels := make([]int, m)
	for i := range labels {
		labels[i] = i % out
	}
	logits := net.Forward(x, true)
	_, g := nn.SoftmaxCrossEntropy{}.Forward(logits, nn.Target{Labels: labels})
	net.ZeroGrad()
	net.Backward(g)
	return net
}

// HyLo at full rank in KID mode must agree with the exact SNGD update:
// the hybrid method is a controlled approximation of Eq. (7).
func TestHyLoFullRankKIDMatchesSNGD(t *testing.T) {
	const m, in, out, alpha = 12, 4, 3, 0.3
	netA := capturedNet(21, m, in, out)
	netB := capturedNet(21, m, in, out) // identical twin

	s := sngd.New(netA, alpha, dist.Local(), nil)
	s.Update()
	s.Precondition()
	want := netA.KernelLayers()[0].Weight().Grad

	h := NewHyLo(netB, alpha, 1.0, dist.Local(), nil, mat.NewRNG(1))
	h.Policy = FixedSwitch{Mode: ModeKID}
	h.OnEpochStart(0, false)
	h.Update()
	h.Precondition()
	got := netB.KernelLayers()[0].Weight().Grad

	if d := mat.MaxAbsDiff(got, want); d > 1e-6 {
		t.Fatalf("full-rank KID HyLo differs from SNGD by %g", d)
	}
}

func TestHyLoKISModeRuns(t *testing.T) {
	net := capturedNet(22, 20, 5, 4)
	h := NewHyLo(net, 0.3, 0.25, dist.Local(), nil, mat.NewRNG(2))
	h.Policy = FixedSwitch{Mode: ModeKIS}
	h.OnEpochStart(0, false)
	h.Update()
	h.Precondition()
	for _, v := range net.KernelLayers()[0].Weight().Grad.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("KIS-mode HyLo produced non-finite gradient")
		}
	}
	if h.Mode() != ModeKIS {
		t.Fatalf("mode = %v; want KIS", h.Mode())
	}
}

func TestHyLoSwitchingFromAccumulatedGradients(t *testing.T) {
	net := capturedNet(23, 8, 3, 2)
	h := NewHyLo(net, 0.3, 0.5, dist.Local(), nil, mat.NewRNG(3))
	h.Policy = GradientSwitch{Eta: 0.25}
	l := net.KernelLayers()[0]

	setGradAndStep := func(scale float64) {
		l.Weight().Grad.Fill(scale)
		h.Precondition() // accumulates Δₑ
	}

	// Epoch 0: no history → KID.
	h.OnEpochStart(0, false)
	if h.Mode() != ModeKID {
		t.Fatal("epoch 0 should be KID")
	}
	setGradAndStep(1)
	// Epoch 1: one norm in history → ratio still NaN → KID.
	h.OnEpochStart(1, false)
	if h.Mode() != ModeKID {
		t.Fatal("epoch 1 should be KID")
	}
	setGradAndStep(1.01)
	// Epoch 2: ‖Δ₁‖ ≈ ‖Δ₀‖ → R ≈ 0.01 < η → KIS.
	h.OnEpochStart(2, false)
	if h.Mode() != ModeKIS {
		t.Fatalf("epoch 2 mode = %v; want KIS (stable gradients)", h.Mode())
	}
	setGradAndStep(10)
	// Epoch 3: gradient norm jumped 10× → R ≈ 9 ≥ η → KID.
	h.OnEpochStart(3, false)
	if h.Mode() != ModeKID {
		t.Fatalf("epoch 3 mode = %v; want KID (gradient jump)", h.Mode())
	}
	setGradAndStep(10)
	// Epoch 4: stable again but LR decays → KID.
	h.OnEpochStart(4, true)
	if h.Mode() != ModeKID {
		t.Fatal("LR-decay epoch should be KID")
	}

	modes := h.ModeStrings()
	want := []string{"KID", "KID", "KIS", "KID", "KID"}
	for i, w := range want {
		if modes[i] != w {
			t.Fatalf("EpochModes = %v; want %v", modes, want)
		}
	}
}

// Distributed HyLo-KID at full rank with per-worker shards must match the
// single-worker full-batch result (gathered factors reconstruct the batch,
// and the block-diagonal Y assembles the per-worker corrections).
func TestHyLoDistributedKIDFullRank(t *testing.T) {
	const p, mPer, in, out, alpha = 2, 6, 3, 2, 0.4
	m := p * mPer
	ref := capturedNet(31, m, in, out)
	refL := ref.KernelLayers()[0]
	aFull, gFull := refL.Capture()
	gradFull := refL.Weight().Grad.Clone()

	s := sngd.New(ref, alpha, dist.Local(), nil)
	s.Update()
	s.Precondition()
	want := refL.Weight().Grad.Clone()

	results := make([]*mat.Dense, p)
	cluster := dist.NewCluster(p)
	cluster.Run(func(w *dist.Worker) {
		rng := mat.NewRNG(55)
		net := nn.NewNetwork(nn.Vec(in), rng, nn.NewLinear(out))
		lin := net.KernelLayers()[0].(*nn.Linear)
		lin.SetCapture(true)
		lo := w.Rank * mPer
		x := mat.NewDense(mPer, in)
		for i := 0; i < mPer; i++ {
			copy(x.Row(i), aFull.Row(lo + i)[:in])
		}
		lin.Forward(x, true)
		shardG := gFull.SliceRows(lo, lo+mPer).Scale(1 / float64(mPer))
		lin.Backward(shardG)
		lin.Weight().Grad.CopyFrom(gradFull)

		h := NewHyLo(net, alpha, 1.0, w, nil, mat.NewRNG(uint64(w.Rank)+1))
		h.Policy = FixedSwitch{Mode: ModeKID}
		h.OnEpochStart(0, false)
		h.Update()
		h.Precondition()
		results[w.Rank] = lin.Weight().Grad.Clone()
	})
	for r := 0; r < p; r++ {
		// The per-worker block-diagonal Y is itself an approximation (it
		// drops cross-worker residual coupling), but at full local rank the
		// residual R is 0 and the result is exact.
		if d := mat.MaxAbsDiff(results[r], want); d > 1e-6 {
			t.Fatalf("rank %d: distributed HyLo differs from exact SNGD by %g", r, d)
		}
	}
}

func TestHyLoStateBytesReported(t *testing.T) {
	net := capturedNet(41, 16, 4, 3)
	h := NewHyLo(net, 0.3, 0.25, dist.Local(), nil, mat.NewRNG(5))
	h.OnEpochStart(0, false)
	h.Update()
	if h.StateBytes() <= 0 {
		t.Fatal("StateBytes should be positive after an update")
	}
}

func TestHyLoTimelinePhases(t *testing.T) {
	tl := dist.NewTimeline()
	net := capturedNet(42, 16, 4, 3)
	h := NewHyLo(net, 0.3, 0.25, dist.Local(), tl, mat.NewRNG(6))
	h.Policy = FixedSwitch{Mode: ModeKID}
	h.OnEpochStart(0, false)
	h.Update()
	for _, phase := range []string{dist.PhaseFactorize, dist.PhaseGather, dist.PhaseInvert, dist.PhaseBroadcast} {
		if tl.Count(phase) == 0 {
			t.Fatalf("phase %q not recorded", phase)
		}
	}
}

func TestHyLoMinimumRank(t *testing.T) {
	// RankFrac so small that r would round to 0 — must clamp to 1.
	net := capturedNet(43, 4, 3, 2)
	h := NewHyLo(net, 0.3, 0.001, dist.Local(), nil, mat.NewRNG(7))
	h.Policy = FixedSwitch{Mode: ModeKIS}
	h.OnEpochStart(0, false)
	h.Update()
	h.Precondition()
	st := h.state[0]
	if st.A.Rows() != 1 {
		t.Fatalf("reduced rows = %d; want 1", st.A.Rows())
	}
}

func TestHyLoAdaptiveRankShrinks(t *testing.T) {
	// Build captures with an (almost) rank-1 kernel: adaptive rank should
	// select far fewer rows than the fixed ρ.
	rng := mat.NewRNG(90)
	m, in, out := 24, 5, 4
	net := nn.NewNetwork(nn.Vec(in), rng, nn.NewLinear(out))
	lin := net.KernelLayers()[0].(*nn.Linear)
	lin.SetCapture(true)
	// Rank-1 inputs: all samples along one direction (+ tiny noise).
	dir := mat.RandN(rng, 1, in, 1)
	x := mat.NewDense(m, in)
	for i := 0; i < m; i++ {
		c := 1 + 0.1*rng.Norm()
		for j := 0; j < in; j++ {
			x.Set(i, j, c*dir.At(0, j))
		}
	}
	logits := lin.Forward(x, true)
	_, g := nn.SoftmaxCrossEntropy{}.Forward(logits, nn.Target{Labels: make([]int, m)})
	net.ZeroGrad()
	lin.Backward(g)

	h := NewHyLo(net, 0.3, 0.5, dist.Local(), nil, mat.NewRNG(91))
	h.Policy = FixedSwitch{Mode: ModeKID}
	h.AdaptiveRank = true
	h.AdaptiveTol = 1e-2
	h.OnEpochStart(0, false)
	h.Update()
	fixedRho := 12 // 0.5 × 24
	if got := h.state[0].A.Rows(); got >= fixedRho {
		t.Fatalf("adaptive rank %d did not shrink below fixed ρ=%d on a near-rank-1 kernel", got, fixedRho)
	}
	h.Precondition()
	for _, v := range lin.Weight().Grad.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("adaptive-rank HyLo produced non-finite gradient")
		}
	}
}

func TestHyLoRandomizedKIDRuns(t *testing.T) {
	net := capturedNet(92, 24, 5, 3)
	h := NewHyLo(net, 0.3, 0.25, dist.Local(), nil, mat.NewRNG(93))
	h.Policy = FixedSwitch{Mode: ModeKID}
	h.Sketch = SketchGauss
	h.OnEpochStart(0, false)
	h.Update()
	h.Precondition()
	for _, v := range net.KernelLayers()[0].Weight().Grad.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("randomized-KID HyLo produced non-finite gradient")
		}
	}
}

// Quantized communication must barely perturb the preconditioned gradient:
// 12 mantissa bits (the Ueno-style format) gives ~2^-12 relative error on
// the factors.
func TestHyLoQuantizedCommCloseToExact(t *testing.T) {
	run := func(bits int) *mat.Dense {
		net := capturedNet(95, 16, 5, 3)
		h := NewHyLo(net, 0.3, 0.5, dist.Local(), nil, mat.NewRNG(96))
		h.Policy = FixedSwitch{Mode: ModeKIS}
		h.CommMantissaBits = bits
		h.OnEpochStart(0, false)
		h.Update()
		h.Precondition()
		return net.KernelLayers()[0].Weight().Grad.Clone()
	}
	exact := run(0)
	quant := run(12)
	rel := mat.Sub(exact, quant).FrobNorm() / exact.FrobNorm()
	if rel > 1e-2 {
		t.Fatalf("12-bit quantized result differs by %g relative", rel)
	}
	if rel == 0 {
		t.Fatal("quantization had no effect at all — option not wired?")
	}
}
