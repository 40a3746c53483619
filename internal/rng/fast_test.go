package rng

import (
	"math"
	"testing"
)

// TestFillUint64MatchesScalar: block generation must be the identity on the
// stream — same values, same post-state as repeated Uint64 calls.
func TestFillUint64MatchesScalar(t *testing.T) {
	a, b := New(99), New(99)
	block := make([]uint64, 257)
	a.FillUint64(block)
	for i, got := range block {
		if want := b.Uint64(); got != want {
			t.Fatalf("block[%d] = %d, scalar gives %d", i, got, want)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Error("post-block states diverged")
	}
}

// TestBernoulliThresholdMatchesFloat: for non-degenerate p, the threshold
// trial must decide exactly as Float64() < p on the same stream.
func TestBernoulliThresholdMatchesFloat(t *testing.T) {
	ps := []float64{1e-17, 1e-9, 0.1, 0.25, 1.0 / 3, 0.5, 0.75, 0.999999, 1 - 1e-12}
	for _, p := range ps {
		thr := BernoulliThreshold(p)
		if thr == 0 || thr == BernoulliAlways {
			t.Fatalf("p=%v unexpectedly degenerate", p)
		}
		a, b := New(7), New(7)
		for i := 0; i < 5000; i++ {
			got := a.Uint64() < thr
			want := b.Float64() < p
			if got != want {
				t.Fatalf("p=%v trial %d: threshold says %v, float says %v", p, i, got, want)
			}
		}
	}
}

// TestBernoulliThresholdDegenerate: probabilities no uniform can
// separate from 0 or 1 must map to the certain sentinels.
func TestBernoulliThresholdDegenerate(t *testing.T) {
	if BernoulliThreshold(0) != 0 || BernoulliThreshold(-1) != 0 {
		t.Error("p<=0 must map to threshold 0")
	}
	if BernoulliThreshold(1) != BernoulliAlways || BernoulliThreshold(2) != BernoulliAlways {
		t.Error("p>=1 must map to BernoulliAlways")
	}
	// p within 2⁻⁵³ of 1 is indistinguishable from 1 for a 53-bit uniform.
	if BernoulliThreshold(1-math.Pow(2, -54)) != BernoulliAlways {
		t.Error("p > 1-2⁻⁵³ must map to BernoulliAlways")
	}
}

// TestBoundedMatchesIntn: Next must be a drop-in for Intn — same values,
// same stream consumption — including bounds that exercise rejection.
func TestBoundedMatchesIntn(t *testing.T) {
	ns := []int{1, 2, 3, 7, 1000, 1 << 20}
	// A bound just above 2⁶² fits only a 64-bit int.
	if big := uint64(1<<62) + 12345; big <= math.MaxInt {
		ns = append(ns, int(big))
	}
	for _, n := range ns {
		b := NewBounded(n)
		x, y := New(42), New(42)
		for i := 0; i < 2000; i++ {
			if got, want := b.Next(x), y.Intn(n); got != want {
				t.Fatalf("n=%d draw %d: Bounded %d vs Intn %d", n, i, got, want)
			}
		}
		if x.Uint64() != y.Uint64() {
			t.Fatalf("n=%d: stream consumption diverged", n)
		}
	}
}

func TestNewBoundedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBounded(0) did not panic")
		}
	}()
	NewBounded(0)
}

func BenchmarkBernoulliFloat(b *testing.B) {
	g := New(1)
	acc := 0
	for i := 0; i < b.N; i++ {
		if g.Bernoulli(0.37) {
			acc++
		}
	}
	_ = acc
}

func BenchmarkBernoulliThreshold(b *testing.B) {
	g := New(1)
	thr := BernoulliThreshold(0.37)
	acc := 0
	for i := 0; i < b.N; i++ {
		if g.Uint64() < thr {
			acc++
		}
	}
	_ = acc
}

func BenchmarkIntnScalar(b *testing.B) {
	g := New(1)
	acc := 0
	for i := 0; i < b.N; i++ {
		acc += g.Intn(1 << 18)
	}
	_ = acc
}
