package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cliutil"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/train"
)

func TestPercentileRule(t *testing.T) {
	if got := samplesForTail(90); got != 100 {
		t.Fatalf("samplesForTail(90) = %d, want 100", got)
	}
	above := func(xs []float64, p float64) int {
		v, n := percentile(xs, p), 0
		for _, x := range xs {
			if x > v {
				n++
			}
		}
		return n
	}
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if got := above(seq(100), 90); got != tailBeyond {
		t.Errorf("100 samples: %d above p90, want %d", got, tailBeyond)
	}
	if got := above(seq(99), 90); got >= tailBeyond {
		t.Errorf("99 samples: %d above p90, want fewer than %d", got, tailBeyond)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// TestTimedLayerKeepsKernelLayers checks that wrapping every top-level
// layer leaves Network.KernelLayers and Params identical in count, order
// and identity, for a plain stack and for one of residual blocks.
func TestTimedLayerKeepsKernelLayers(t *testing.T) {
	for _, model := range []string{"3c1f", "densenet"} {
		wl, err := cliutil.BuildWorkload(model, 4, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		var kernels []nn.KernelLayer
		var params []*nn.Param
		net := newTracer().Build(func(rng *mat.RNG) *nn.Network {
			n := wl.Build(rng)
			kernels, params = n.KernelLayers(), n.Params()
			return n
		})(mat.NewRNG(7))
		for _, l := range net.Layers {
			if _, ok := l.(*timedLayer); !ok {
				t.Fatalf("%s: layer %s not wrapped", model, l.Name())
			}
		}
		got := net.KernelLayers()
		if len(got) != len(kernels) || len(kernels) == 0 {
			t.Fatalf("%s: %d kernel layers after wrapping, %d before", model, len(got), len(kernels))
		}
		for i := range got {
			if got[i] != kernels[i] {
				t.Errorf("%s: kernel layer %d is not the original layer", model, i)
			}
		}
		gotP := net.Params()
		if len(gotP) != len(params) {
			t.Fatalf("%s: %d params after wrapping, %d before", model, len(gotP), len(params))
		}
		for i := range gotP {
			if gotP[i] != params[i] {
				t.Errorf("%s: param %d is not the original param", model, i)
			}
		}
	}
}

// bare has none of the optional preconditioner interfaces; partialPre
// has two of the four.
type (
	bare       struct{}
	partialPre struct{ bare }
)

func (bare) Update()                      {}
func (bare) Precondition()                {}
func (bare) StateBytes() int              { return 0 }
func (bare) Name() string                 { return "bare" }
func (partialPre) OnEpochStart(int, bool) {}
func (partialPre) ModeStrings() []string  { return []string{"KID"} }

func interfacesOf(p opt.Preconditioner) [4]bool {
	_, e := p.(train.EpochAware)
	_, s := p.(ckpt.StateSaver)
	_, d := p.(damper)
	_, m := p.(moder)
	return [4]bool{e, s, d, m}
}

// TestDecorateExposesExactlyInnerInterfaces checks the preconditioner
// decorator against every preconditioner the workloads build and two
// fakes.
func TestDecorateExposesExactlyInnerInterfaces(t *testing.T) {
	wl, err := cliutil.BuildWorkload("mlp", 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	net := wl.Build(mat.NewRNG(1))
	inners := map[string]opt.Preconditioner{"bare": bare{}, "partial": partialPre{}}
	for _, name := range []string{"hylo", "kfac", "sngd"} {
		f, err := cliutil.PrecondFactory(name, cliutil.PrecondOpts{Damping: 0.1, RankFrac: 0.1, Eta: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		inners[name] = f(net, dist.Local(), dist.NewTimeline(), mat.NewRNG(2))
	}
	for name, inner := range inners {
		got := decorate(inner, &replica{})
		if interfacesOf(got) != interfacesOf(inner) {
			t.Errorf("%s: decorated interfaces %v, inner %v", name, interfacesOf(got), interfacesOf(inner))
		}
		if got.Name() != inner.Name() {
			t.Errorf("%s: Name %q, want %q", name, got.Name(), inner.Name())
		}
	}
	if got := interfacesOf(inners["hylo"]); got != [4]bool{true, true, true, true} {
		t.Errorf("HyLo implements %v; the decorator test no longer covers all four interfaces", got)
	}
}

// shortTrial is w cut to a few epochs for tests.
func shortTrial(w trainWorkload, timed int) trainWorkload {
	w.Warmup, w.Timed = 1, timed
	return w
}

// TestSeedReproducesBits checks that a seed fixes the final loss bits,
// with and without the tracing wrappers, and that another seed changes
// the generated inputs.
func TestSeedReproducesBits(t *testing.T) {
	w := shortTrial(cnnHyLoLocal, 1)
	a, err := runTrial(w, 3, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := runTrial(w, 3, newTracer(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if x, y := math.Float64bits(a.Res.FinalLoss), math.Float64bits(b.Res.FinalLoss); x != y {
		t.Errorf("same seed, traced vs untraced: loss bits %#x vs %#x", y, x)
	}

	data := func(seed uint64) []float64 {
		wl, err := cliutil.BuildWorkload(w.Model, w.Classes, w.PerClass, seed)
		if err != nil {
			t.Fatal(err)
		}
		return wl.Train.X.Data()
	}
	if !equalFloats(data(3), data(3)) {
		t.Error("same seed generated different inputs")
	}
	if equalFloats(data(3), data(4)) {
		t.Error("different seeds generated the same inputs")
	}
	s3, s4 := serveSNGDJobs.specFor(3, 0), serveSNGDJobs.specFor(4, 0)
	if s3.Seed == s4.Seed || s3.Seed == serveSNGDJobs.specFor(3, 1).Seed {
		t.Error("serve job seeds do not differ across run seeds and clients")
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDenseNetTCPMatchesInProcess pins the densenet-kfac-tcp workload to
// the in-process two-worker cluster: the same seed must give the same
// loss bits in every epoch.
func TestDenseNetTCPMatchesInProcess(t *testing.T) {
	w := shortTrial(denseNetKFACTCP, 2)
	const seed = 5
	got, err := runTrial(w, seed, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wl, err := cliutil.BuildWorkload(w.Model, w.Classes, w.PerClass, seed)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := w.factory()
	if err != nil {
		t.Fatal(err)
	}
	want := train.RunDistributed(w.Ranks, w.trainConfig(seed), wl.Build, wl.Train, wl.Test, wl.Task, pre, wl.Target)
	if len(got.Res.Stats) != len(want.Stats) {
		t.Fatalf("%d epochs over TCP, %d in process", len(got.Res.Stats), len(want.Stats))
	}
	for i := range want.Stats {
		g, w := got.Res.Stats[i].TrainLoss, want.Stats[i].TrainLoss
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("epoch %d: TCP loss %v (%#x), in-process %v (%#x)", i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestServeJobCountDependsOnArguments checks that a serve run's job count
// is fixed by --seconds alone, never below what job_ms_p90 needs.
func TestServeJobCountDependsOnArguments(t *testing.T) {
	w := serveSNGDJobs
	for _, sec := range []time.Duration{time.Second, 25 * time.Second} {
		if got := serveJobsPerClient(w, sec) * serveSessions * w.Clients; got < samplesForTail(90) {
			t.Errorf("--seconds %v: %d timed jobs, want at least %d", sec, got, samplesForTail(90))
		}
	}
	if a, b := serveJobsPerClient(w, 25*time.Second), serveJobsPerClient(w, 50*time.Second); b <= a {
		t.Errorf("doubling --seconds gave %d jobs per client, had %d", b, a)
	}
}
