package protocol

import (
	"fmt"
	"math"
	"testing"

	"bitspread/internal/dist"
)

// sampleCountPMF fills dst[k] with the Binomial(ℓ, p) probability of
// observing exactly k ones among ℓ uniform samples when the global fraction
// of ones is p — the distribution of the observation an agent conditions
// its update on. dst must have ℓ+1 entries; p is clamped to [0, 1].
//
// It is the reference TestSampleCountPMFConsistentWithAdoptProb checks
// AdoptProb against, evaluated by the same mode-outward multiplicative
// recurrence (O(ℓ) with three log-factorials, underflow-safe because terms
// only shrink away from the mode).
func sampleCountPMF(ell int, p float64, dst []float64) {
	if len(dst) != ell+1 {
		panic(fmt.Sprintf("protocol: sampleCountPMF dst has %d entries, want ℓ+1 = %d", len(dst), ell+1))
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	for k := range dst {
		dst[k] = 0
	}
	switch {
	case p == 0:
		dst[0] = 1
		return
	case p == 1:
		dst[ell] = 1
		return
	}

	mode := int(float64(ell+1) * p)
	if mode > ell {
		mode = ell
	}
	logPmf := dist.LogChoose(int64(ell), int64(mode)) +
		float64(mode)*math.Log(p) + float64(ell-mode)*math.Log1p(-p)
	pmfMode := math.Exp(logPmf)
	ratio := p / (1 - p)

	dst[mode] = pmfMode
	cur := pmfMode
	for k := mode; k < ell && cur > 0; k++ {
		cur *= float64(ell-k) / float64(k+1) * ratio
		dst[k+1] = cur
	}
	cur = pmfMode
	for k := mode; k > 0 && cur > 0; k-- {
		cur *= float64(k) / float64(ell-k+1) / ratio
		dst[k-1] = cur
	}
}

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
			sampleCountPMF(ell, p, dst)
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
			sampleCountPMF(ell, p, pmf)
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
	sampleCountPMF(3, 0.5, make([]float64, 3))
}
