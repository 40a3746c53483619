package protocol

import (
	"math"
	"testing"

	"bitspread/internal/dist"
)

// Reference pmf straight from the definition, in log space.
func binomPMF(ell, k int, p float64) float64 {
	if p == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p == 1 {
		if k == ell {
			return 1
		}
		return 0
	}
	logP := dist.LogChoose(int64(ell), int64(k)) +
		float64(k)*math.Log(p) + float64(ell-k)*math.Log1p(-p)
	return math.Exp(logP)
}

func TestSampleCountPMFMatchesDefinition(t *testing.T) {
	for _, ell := range []int{1, 3, 7, 50, 500} {
		dst := make([]float64, ell+1)
		for _, p := range []float64{0, 1e-9, 0.01, 0.3, 0.5, 0.75, 0.999, 1, -0.5, 1.5} {
			SampleCountPMF(ell, p, dst)
			clamped := math.Min(math.Max(p, 0), 1)
			sum := 0.0
			for k := 0; k <= ell; k++ {
				want := binomPMF(ell, k, clamped)
				if math.Abs(dst[k]-want) > 1e-12 {
					t.Fatalf("ℓ=%d p=%v k=%d: pmf %v, want %v", ell, p, k, dst[k], want)
				}
				sum += dst[k]
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("ℓ=%d p=%v: pmf sums to %v", ell, p, sum)
			}
		}
	}
}

// Σ_k pmf(k)·g^[b](k) is Eq. 4: check the pmf against AdoptProb across
// rules and fractions.
func TestSampleCountPMFConsistentWithAdoptProb(t *testing.T) {
	rules := []*Rule{Voter(1), Minority(3), Majority(5), Minority(17)}
	for _, r := range rules {
		ell := r.SampleSize()
		g0, g1 := r.Tables()
		pmf := make([]float64, ell+1)
		for _, p := range []float64{0, 0.1, 0.5, 0.9, 1} {
			SampleCountPMF(ell, p, pmf)
			for b, tbl := range [][]float64{g0, g1} {
				sum := 0.0
				for k := 0; k <= ell; k++ {
					sum += pmf[k] * tbl[k]
				}
				if want := r.AdoptProb(b, p); math.Abs(sum-want) > 1e-12 {
					t.Errorf("%v b=%d p=%v: Σ pmf·g = %v, AdoptProb = %v", r, b, p, sum, want)
				}
			}
		}
	}
}

func TestSampleCountPMFPanicsOnBadDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for wrong dst length")
		}
	}()
	SampleCountPMF(3, 0.5, make([]float64, 3))
}
