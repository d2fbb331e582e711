package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandomizedIDExactLowRank(t *testing.T) {
	rng := NewRNG(61)
	q := RandLowRank(rng, 30, 30, 4, 0)
	p, s := RandomizedID(rng, q, 4, 6)
	if len(s) != 4 || p.Cols() != 4 {
		t.Fatalf("dims: |S|=%d, P cols=%d; want 4", len(s), p.Cols())
	}
	rel := Sub(Mul(p, q.SelectRows(s)), q).FrobNorm() / q.FrobNorm()
	if rel > 1e-8 {
		t.Fatalf("rank-4 randomized ID of rank-4 matrix: rel error %g", rel)
	}
}

func TestRandomizedIDSelectedRowsIdentity(t *testing.T) {
	rng := NewRNG(62)
	q := RandN(rng, 15, 15, 1)
	r := 6
	p, s := RandomizedID(rng, q, r, 4)
	for k, row := range s {
		for j := 0; j < r; j++ {
			want := 0.0
			if j == k {
				want = 1
			}
			if d := p.At(row, j) - want; d > 1e-12 || d < -1e-12 {
				t.Fatalf("P[%d,%d] = %g; want %g", row, j, p.At(row, j), want)
			}
		}
	}
}

func TestRandomizedIDCloseToDeterministic(t *testing.T) {
	// On a low-rank+noise matrix, the randomized ID error should be within
	// a small factor of the deterministic pivoted-QR ID error.
	rng := NewRNG(63)
	q := RandLowRank(rng, 40, 40, 6, 1e-3)
	pd, sd := InterpolativeDecomp(q, 8)
	detErr := Sub(Mul(pd, q.SelectRows(sd)), q).FrobNorm()
	pr, sr := RandomizedID(rng, q, 8, 8)
	randErr := Sub(Mul(pr, q.SelectRows(sr)), q).FrobNorm()
	if randErr > 10*detErr+1e-9 {
		t.Fatalf("randomized ID error %g far above deterministic %g", randErr, detErr)
	}
}

func TestRandomizedIDZeroAndClamp(t *testing.T) {
	rng := NewRNG(64)
	q := RandN(rng, 5, 3, 1)
	p, s := RandomizedID(rng, q, 100, 2) // clamped to 3
	if len(s) != 3 || p.Cols() != 3 {
		t.Fatalf("clamp: |S|=%d; want 3", len(s))
	}
	p0, s0 := RandomizedID(rng, NewDense(4, 4), 0, 2)
	if len(s0) != 0 || p0.Cols() != 0 {
		t.Fatal("zero-rank randomized ID should be empty")
	}
}

// Property: indices valid and unique; reconstruction finite.
func TestRandomizedIDProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := NewRNG(uint64(seed)*119 + 3)
		m := 5 + rng.Intn(20)
		r := 1 + rng.Intn(m-1)
		q := RandLowRank(rng, m, m, min(r, 5), 0.01)
		p, s := RandomizedID(rng, q, r, 5)
		if len(s) != r || p.Cols() != r {
			return false
		}
		seen := map[int]bool{}
		for _, i := range s {
			if i < 0 || i >= m || seen[i] {
				return false
			}
			seen[i] = true
		}
		return Mul(p, q.SelectRows(s)).FrobNorm() < 1e12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDeterministicID512r64(b *testing.B) {
	rng := NewRNG(1)
	q := RandLowRank(rng, 512, 512, 64, 1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		InterpolativeDecomp(q, 64)
	}
}

func BenchmarkRandomizedID512r64(b *testing.B) {
	rng := NewRNG(1)
	q := RandLowRank(rng, 512, 512, 64, 1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RandomizedID(rng, q, 64, 10)
	}
}

func TestRandomizedIDIntoSRHTLowRank(t *testing.T) {
	rng := NewRNG(71)
	q := RandLowRank(rng, 30, 30, 4, 0)
	p, s, cond := RandomizedIDInto(nil, nil, rng, q, 4, 6, SketchSRHT)
	if len(s) != 4 || p.Cols() != 4 {
		t.Fatalf("dims: |S|=%d, P cols=%d; want 4", len(s), p.Cols())
	}
	if cond < 1 || math.IsInf(cond, 0) || math.IsNaN(cond) {
		t.Fatalf("cond = %g; want finite >= 1 on a well-posed sketch", cond)
	}
	rel := Sub(Mul(p, q.SelectRows(s)), q).FrobNorm() / q.FrobNorm()
	if rel > 1e-8 {
		t.Fatalf("rank-4 SRHT ID of rank-4 matrix: rel error %g", rel)
	}
}

func TestRandomizedIDIntoKinds(t *testing.T) {
	for _, kind := range []SketchKind{SketchGauss, SketchSRHT} {
		rng := NewRNG(72)
		q := RandN(rng, 17, 13, 1)
		r := 6
		p, s, cond := RandomizedIDInto(nil, nil, rng, q, r, 4, kind)
		if len(s) != r || p.Rows() != 17 || p.Cols() != r {
			t.Fatalf("kind %d: dims |S|=%d P=%dx%d", kind, len(s), p.Rows(), p.Cols())
		}
		seen := map[int]bool{}
		for k, row := range s {
			if row < 0 || row >= 17 || seen[row] {
				t.Fatalf("kind %d: bad index set %v", kind, s)
			}
			seen[row] = true
			for j := 0; j < r; j++ {
				want := 0.0
				if j == k {
					want = 1
				}
				if d := p.At(row, j) - want; d > 1e-12 || d < -1e-12 {
					t.Fatalf("kind %d: P[%d,%d] = %g; want %g", kind, row, j, p.At(row, j), want)
				}
			}
		}
		if math.IsNaN(cond) || cond < 1 {
			t.Fatalf("kind %d: cond = %g; want >= 1", kind, cond)
		}
	}
}

// S1 regression: negative or zero oversample used to slip through and index
// past the sketch; it must clamp to 1 and still produce a valid ID.
func TestRandomizedIDNegativeOversampleClamped(t *testing.T) {
	for _, kind := range []SketchKind{SketchGauss, SketchSRHT} {
		for _, over := range []int{-7, 0} {
			rng := NewRNG(73)
			q := RandLowRank(rng, 20, 20, 5, 1e-3)
			p, s, _ := RandomizedIDInto(nil, nil, rng, q, 5, over, kind)
			if len(s) != 5 || p.Cols() != 5 {
				t.Fatalf("kind %d over %d: |S|=%d cols=%d; want 5", kind, over, len(s), p.Cols())
			}
			if !p.IsFinite() {
				t.Fatalf("kind %d over %d: non-finite P", kind, over)
			}
		}
	}
}

// The sketch width k must clamp to n when r+oversample exceeds it.
func TestRandomizedIDOversampleClampedToN(t *testing.T) {
	for _, kind := range []SketchKind{SketchGauss, SketchSRHT} {
		rng := NewRNG(74)
		q := RandN(rng, 20, 3, 1)
		p, s, _ := RandomizedIDInto(nil, nil, rng, q, 2, 100, kind)
		if len(s) != 2 || p.Cols() != 2 || !p.IsFinite() {
			t.Fatalf("kind %d: |S|=%d cols=%d finite=%v; want 2/2/true",
				kind, len(s), p.Cols(), p.IsFinite())
		}
	}
}

// A numerically rank-deficient input must surface through the condition
// estimate rather than silently yielding a garbage basis.
func TestRandomizedIDIntoCondFlagsDegenerate(t *testing.T) {
	for _, kind := range []SketchKind{SketchGauss, SketchSRHT} {
		rng := NewRNG(75)
		v := RandN(rng, 25, 1, 1)
		q := Mul(v, v.T()) // exactly rank 1
		_, _, cond := RandomizedIDInto(nil, nil, rng, q, 5, 4, kind)
		if !(cond > 1e10) && !math.IsInf(cond, 1) {
			t.Fatalf("kind %d: cond = %g on a rank-1 input; want huge or +Inf", kind, cond)
		}
	}
}

func TestRandomizedIDIntoZeroRank(t *testing.T) {
	rng := NewRNG(76)
	q := RandN(rng, 6, 6, 1)
	p, s, cond := RandomizedIDInto(nil, nil, rng, q, 0, 4, SketchSRHT)
	if p.Rows() != 6 || p.Cols() != 0 || len(s) != 0 || cond != 1 {
		t.Fatalf("zero rank: P=%dx%d |S|=%d cond=%g", p.Rows(), p.Cols(), len(s), cond)
	}
}

// FWHT applied twice is n times the identity — the orthogonality property
// the SRHT scaling relies on.
func TestFWHTInvolution(t *testing.T) {
	rng := NewRNG(77)
	x := make([]float64, 16)
	orig := make([]float64, 16)
	for i := range x {
		x[i] = rng.Norm()
		orig[i] = x[i]
	}
	fwht(x)
	fwht(x)
	for i := range x {
		if d := x[i]/16 - orig[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("fwht involution: elem %d drifted by %g", i, d)
		}
	}
}

// Steady-state calls with recycled workspaces must not allocate beyond the
// small fixed factorization header.
func TestRandomizedIDIntoSteadyStateAllocs(t *testing.T) {
	rng := NewRNG(78)
	q := RandLowRank(rng, 64, 64, 8, 1e-3)
	for _, kind := range []SketchKind{SketchGauss, SketchSRHT} {
		kind := kind
		var p *Dense
		var s []int
		p, s, _ = RandomizedIDInto(p, s, rng, q, 8, 6, kind) // warm pools
		allocs := testing.AllocsPerRun(10, func() {
			p, s, _ = RandomizedIDInto(p, s, rng, q, 8, 6, kind)
		})
		// The race detector drops sync.Pool puts, so only an un-raced
		// build can hold the pools to their steady state.
		if allocs > 4 && !raceEnabled {
			t.Fatalf("kind %d: %v allocs/op in steady state; want <= 4", kind, allocs)
		}
	}
}

func BenchmarkSRHTID512r64(b *testing.B) {
	rng := NewRNG(1)
	q := RandLowRank(rng, 512, 512, 64, 1e-3)
	var p *Dense
	var s []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, s, _ = RandomizedIDInto(p, s, rng, q, 64, 10, SketchSRHT)
	}
}
