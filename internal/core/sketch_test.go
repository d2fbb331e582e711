package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/numerics"
	"repro/internal/sngd"
)

func TestSketchStringRoundTrip(t *testing.T) {
	for s, want := range map[Sketch]string{
		SketchOff: "off", SketchGauss: "gauss", SketchSRHT: "srht",
	} {
		if s.String() != want {
			t.Errorf("Sketch(%d).String() = %q; want %q", s, s.String(), want)
		}
	}
}

func TestKIDFactorsSketchShapes(t *testing.T) {
	for _, kind := range []Sketch{SketchGauss, SketchSRHT} {
		rng := mat.NewRNG(81)
		a := mat.RandN(rng, 20, 4, 1)
		g := mat.RandN(rng, 20, 3, 1)
		as, gs, y, err := KIDFactorsSketch(rng, a, g, 6, 0.1, 4, kind)
		if err != nil {
			t.Fatalf("kind %v: %v", kind, err)
		}
		if as.Rows() != 6 || as.Cols() != 4 || gs.Rows() != 6 || gs.Cols() != 3 {
			t.Fatalf("kind %v: factor dims as=%dx%d gs=%dx%d", kind,
				as.Rows(), as.Cols(), gs.Rows(), gs.Cols())
		}
		if y.Rows() != 6 || y.Cols() != 6 {
			t.Fatalf("kind %v: Y is %dx%d; want 6x6", kind, y.Rows(), y.Cols())
		}
		for _, d := range [][]float64{as.Data(), gs.Data(), y.Data()} {
			for _, v := range d {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("kind %v: non-finite factor", kind)
				}
			}
		}
	}
}

// At full rank the sketched KID must reproduce the exact SNGD update, just
// like the deterministic KID: the sketch only reorders which rows anchor
// the (exact) interpolation.
func TestHyLoSketchFullRankMatchesSNGD(t *testing.T) {
	for _, kind := range []Sketch{SketchGauss, SketchSRHT} {
		const m, in, out, alpha = 12, 4, 3, 0.3
		netA := capturedNet(23, m, in, out)
		netB := capturedNet(23, m, in, out)

		s := sngd.New(netA, alpha, dist.Local(), nil)
		s.Update()
		s.Precondition()
		want := netA.KernelLayers()[0].Weight().Grad

		h := NewHyLo(netB, alpha, 1.0, dist.Local(), nil, mat.NewRNG(3))
		h.Policy = FixedSwitch{Mode: ModeKID}
		h.Sketch = kind
		h.Oversample = 4
		h.OnEpochStart(0, false)
		h.Update()
		h.Precondition()
		got := netB.KernelLayers()[0].Weight().Grad

		if d := mat.MaxAbsDiff(got, want); d > 1e-6 {
			t.Fatalf("kind %v: full-rank sketched KID differs from SNGD by %g", kind, d)
		}
	}
}

// A rank-1 kernel (duplicated batch rows) must trip the sketch condition
// guard with a typed error instead of returning a garbage basis, and the
// condition observation must land in the numerics report.
func TestKIDFactorsSketchGuardIllConditioned(t *testing.T) {
	numerics.Reset()
	defer numerics.Reset()
	for _, kind := range []Sketch{SketchGauss, SketchSRHT} {
		rng := mat.NewRNG(82)
		row := mat.RandN(rng, 1, 3, 1)
		a := mat.NewDense(16, 3)
		g := mat.NewDense(16, 3)
		for i := 0; i < 16; i++ {
			copy(a.Row(i), row.Row(0))
			copy(g.Row(i), row.Row(0))
		}
		_, _, _, err := KIDFactorsSketch(rng, a, g, 8, 0.1, 4, kind)
		if !errors.Is(err, ErrSketchIllConditioned) {
			t.Fatalf("kind %v: err = %v; want ErrSketchIllConditioned", kind, err)
		}
	}
	if !strings.Contains(numerics.Report(), "core.kid.sketch") {
		t.Fatalf("condition observations missing from report:\n%s", numerics.Report())
	}
}

// HyLo must survive a degenerate batch under sketching by falling back to
// the exact KID rung — recorded on the monitor, visible in the report, and
// still producing finite gradients.
func TestHyLoSketchFallbackToExact(t *testing.T) {
	numerics.Reset()
	defer numerics.Reset()
	for _, kind := range []Sketch{SketchGauss, SketchSRHT} {
		const m, in, out = 16, 5, 3
		rng := mat.NewRNG(84)
		net := nn.NewNetwork(nn.Vec(in), rng, nn.NewLinear(out))
		net.SetCapture(true)
		row := mat.RandN(rng, 1, in, 1)
		x := mat.NewDense(m, in)
		for i := 0; i < m; i++ {
			copy(x.Row(i), row.Row(0))
		}
		labels := make([]int, m) // identical samples, identical labels
		logits := net.Forward(x, true)
		_, gb := nn.SoftmaxCrossEntropy{}.Forward(logits, nn.Target{Labels: labels})
		net.ZeroGrad()
		net.Backward(gb)

		h := NewHyLo(net, 0.3, 0.5, dist.Local(), nil, mat.NewRNG(5))
		h.Policy = FixedSwitch{Mode: ModeKID}
		h.Sketch = kind
		h.OnEpochStart(0, false)
		h.Update()
		h.Precondition()
		for _, v := range net.KernelLayers()[0].Weight().Grad.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("kind %v: fallback produced non-finite gradient", kind)
			}
		}
	}
	snap := numerics.Default().Snapshot()
	if snap.Fallbacks["hylo.kid.sketch"][numerics.RungExact] < 2 {
		t.Fatalf("exact-KID fallback not recorded for both kinds: %v", snap.Fallbacks)
	}
	if rep := numerics.Report(); !strings.Contains(rep, "exact-kid") {
		t.Fatalf("report does not mention the exact-kid rung:\n%s", rep)
	}
}

// Steady-state sketched factorization with recycled buffers must stay
// allocation-free apart from the fixed QR header.
func TestKIDFactorsSketchSteadyStateAllocs(t *testing.T) {
	for _, kind := range []Sketch{SketchGauss, SketchSRHT} {
		rng := mat.NewRNG(85)
		a := mat.RandN(rng, 32, 4, 1)
		g := mat.RandN(rng, 32, 4, 1)
		var ws kidSketchWS
		var as, gs, y *mat.Dense
		var err error
		as, gs, y, err = kidFactorsSketchInto(&ws, as, gs, y, rng, a, g, 8, 0.1, 4, kind)
		if err != nil {
			t.Fatalf("kind %v: warmup failed: %v", kind, err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			as, gs, y, err = kidFactorsSketchInto(&ws, as, gs, y, rng, a, g, 8, 0.1, 4, kind)
			if err != nil {
				t.Fatalf("kind %v: steady-state call failed: %v", kind, err)
			}
		})
		// The race detector drops sync.Pool puts, so only an un-raced
		// build can hold the pools to their steady state.
		if allocs > 4 && !raceEnabled {
			t.Fatalf("kind %v: %v allocs/op in steady state; want <= 4", kind, allocs)
		}
	}
}
