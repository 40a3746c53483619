package protocol

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"bitspread/internal/rng"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		ell     int
		g0, g1  []float64
		wantErr error
	}{
		{"ok", 1, []float64{0, 1}, []float64{0, 1}, nil},
		{"zero sample size", 0, []float64{0}, []float64{0}, ErrSampleSize},
		{"negative sample size", -3, nil, nil, ErrSampleSize},
		{"short g0", 2, []float64{0, 1}, []float64{0, 0.5, 1}, ErrTableLength},
		{"long g1", 1, []float64{0, 1}, []float64{0, 0.5, 1}, ErrTableLength},
		{"prob > 1", 1, []float64{0, 1.5}, []float64{0, 1}, ErrProbRange},
		{"prob < 0", 1, []float64{-0.1, 1}, []float64{0, 1}, ErrProbRange},
		{"NaN prob", 1, []float64{math.NaN(), 1}, []float64{0, 1}, ErrProbRange},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New("test", tt.ell, tt.g0, tt.g1)
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("New error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewCopiesTables(t *testing.T) {
	g := []float64{0, 0.5, 1}
	r, err := NewSymmetric("t", 2, g)
	if err != nil {
		t.Fatal(err)
	}
	g[1] = 0.9 // mutate caller's slice
	if r.G(0, 1) != 0.5 {
		t.Error("Rule aliases the caller's table")
	}
}

func TestGAccessor(t *testing.T) {
	r := MustNew("t", 1, []float64{0, 0.25}, []float64{0.75, 1})
	if got := r.G(0, 1); got != 0.25 {
		t.Errorf("G(0,1) = %v", got)
	}
	if got := r.G(1, 0); got != 0.75 {
		t.Errorf("G(1,0) = %v", got)
	}
	for _, bad := range []struct{ b, k int }{{2, 0}, {-1, 0}, {0, 2}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("G(%d,%d) did not panic", bad.b, bad.k)
				}
			}()
			r.G(bad.b, bad.k)
		}()
	}
}

func TestVoterTable(t *testing.T) {
	for _, ell := range []int{1, 2, 3, 7} {
		r := Voter(ell)
		for k := 0; k <= ell; k++ {
			want := float64(k) / float64(ell)
			if got := r.G(0, k); got != want {
				t.Errorf("Voter(ℓ=%d).G(0,%d) = %v, want %v", ell, k, got, want)
			}
		}
		if err := r.CheckProp3(); err != nil {
			t.Errorf("Voter(ℓ=%d) fails Prop 3: %v", ell, err)
		}
		if !r.IsSymmetric() {
			t.Error("Voter should be symmetric")
		}
	}
}

func TestMinorityTableEq2(t *testing.T) {
	// Eq. 2, ℓ = 4: g = [0, 1, 1/2, 0, 1].
	r := Minority(4)
	want := []float64{0, 1, 0.5, 0, 1}
	for k, w := range want {
		if got := r.G(1, k); got != w {
			t.Errorf("Minority(4).G(1,%d) = %v, want %v", k, got, w)
		}
	}
	// ℓ = 5 (odd): g = [0, 1, 1, 0, 0, 1].
	r = Minority(5)
	want = []float64{0, 1, 1, 0, 0, 1}
	for k, w := range want {
		if got := r.G(0, k); got != w {
			t.Errorf("Minority(5).G(0,%d) = %v, want %v", k, got, w)
		}
	}
	// ℓ = 1 degenerates to the Voter.
	r = Minority(1)
	if r.G(0, 0) != 0 || r.G(0, 1) != 1 {
		t.Error("Minority(1) should copy the single sample")
	}
	if err := Minority(6).CheckProp3(); err != nil {
		t.Errorf("Minority fails Prop 3: %v", err)
	}
}

func TestMajorityTable(t *testing.T) {
	r := Majority(3)
	want := []float64{0, 0, 1, 1}
	for k, w := range want {
		if got := r.G(0, k); got != w {
			t.Errorf("Majority(3).G(0,%d) = %v, want %v", k, got, w)
		}
	}
	if got := Majority(4).G(0, 2); got != 0.5 {
		t.Errorf("Majority(4) tie = %v, want 0.5", got)
	}
	if got := ThreeMajority(); got.Name() != "3-Majority" || got.SampleSize() != 3 {
		t.Errorf("ThreeMajority = %v", got)
	}
}

func TestTwoChoiceAsymmetry(t *testing.T) {
	r := TwoChoice()
	if r.IsSymmetric() {
		t.Error("2-Choice must be opinion-aware")
	}
	if r.G(0, 1) != 0 || r.G(1, 1) != 1 {
		t.Error("2-Choice disagreement must keep the current opinion")
	}
	if err := r.CheckProp3(); err != nil {
		t.Errorf("2-Choice fails Prop 3: %v", err)
	}
}

func TestAntiVoterViolatesProp3(t *testing.T) {
	err := AntiVoter(3).CheckProp3()
	if !errors.Is(err, ErrProp3) {
		t.Errorf("AntiVoter.CheckProp3() = %v, want ErrProp3", err)
	}
}

func TestBiasedVoter(t *testing.T) {
	r := BiasedVoter(4, 0.1)
	if err := r.CheckProp3(); err != nil {
		t.Errorf("BiasedVoter must keep Prop 3: %v", err)
	}
	if got, want := r.G(0, 2), 0.6; math.Abs(got-want) > 1e-12 {
		t.Errorf("BiasedVoter.G(0,2) = %v, want %v", got, want)
	}
	// Large positive delta saturates at 1.
	if got := BiasedVoter(4, 2).G(0, 1); got != 1 {
		t.Errorf("saturated BiasedVoter.G(0,1) = %v, want 1", got)
	}
}

func TestLazyVoter(t *testing.T) {
	r := LazyVoter(2, 0.5)
	if r.IsSymmetric() {
		t.Error("LazyVoter must depend on the current opinion")
	}
	if err := r.CheckProp3(); err != nil {
		t.Errorf("LazyVoter fails Prop 3: %v", err)
	}
	// g1(k) - g0(k) = q for all k.
	for k := 0; k <= 2; k++ {
		if got := r.G(1, k) - r.G(0, k); math.Abs(got-0.5) > 1e-12 {
			t.Errorf("laziness gap at k=%d: %v", k, got)
		}
	}
}

func TestFollower(t *testing.T) {
	r := Follower(5, 3)
	for k := 0; k <= 5; k++ {
		want := 0.0
		if k >= 3 {
			want = 1
		}
		if got := r.G(0, k); got != want {
			t.Errorf("Follower(5,3).G(0,%d) = %v, want %v", k, got, want)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Follower with threshold 0 did not panic")
			}
		}()
		Follower(5, 0)
	}()
}

func TestAdoptProbVoterIsIdentity(t *testing.T) {
	// E[k/ℓ] = p for binomial samples: the Voter's adopt probability is p.
	r := Voter(5)
	for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.9, 1} {
		if got := r.AdoptProb(0, p); math.Abs(got-p) > 1e-12 {
			t.Errorf("Voter AdoptProb(%v) = %v", p, got)
		}
	}
}

func TestAdoptProbMinoritySymmetryPoint(t *testing.T) {
	// By the pairing k ↔ ℓ-k, the Minority adopt probability at p=1/2 is 1/2.
	for _, ell := range []int{2, 3, 4, 5, 8} {
		if got := Minority(ell).AdoptProb(0, 0.5); math.Abs(got-0.5) > 1e-12 {
			t.Errorf("Minority(ℓ=%d) AdoptProb(0.5) = %v", ell, got)
		}
	}
}

func TestAdoptProbBoundsQuick(t *testing.T) {
	rules := []*Rule{Voter(3), Minority(4), Majority(5), TwoChoice(), BiasedVoter(3, 0.2)}
	f := func(pRaw uint16, which uint8, b bool) bool {
		p := float64(pRaw) / math.MaxUint16
		r := rules[int(which)%len(rules)]
		bi := 0
		if b {
			bi = 1
		}
		v := r.AdoptProb(bi, p)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAdoptProbMonotoneForThresholdRules(t *testing.T) {
	// For Follower rules (monotone g), AdoptProb must be monotone in p.
	r := Follower(7, 4)
	prev := -1.0
	for i := 0; i <= 100; i++ {
		p := float64(i) / 100
		v := r.AdoptProb(0, p)
		if v < prev-1e-12 {
			t.Fatalf("AdoptProb not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestAdoptProbClampsP(t *testing.T) {
	r := Voter(3)
	if got := r.AdoptProb(0, -0.5); got != 0 {
		t.Errorf("AdoptProb(-0.5) = %v", got)
	}
	if got := r.AdoptProb(0, 1.5); got != 1 {
		t.Errorf("AdoptProb(1.5) = %v", got)
	}
}

func TestWithNoise(t *testing.T) {
	r := WithNoise(Voter(3), 0.1)
	if err := r.CheckProp3(); !errors.Is(err, ErrProp3) {
		t.Errorf("noisy rule should violate Prop 3, got %v", err)
	}
	if got, want := r.G(0, 0), 0.1; math.Abs(got-want) > 1e-12 {
		t.Errorf("noisy G(0,0) = %v, want %v", got, want)
	}
	if got, want := r.G(1, 3), 0.9; math.Abs(got-want) > 1e-12 {
		t.Errorf("noisy G(1,ℓ) = %v, want %v", got, want)
	}
	// Zero noise is the identity transform.
	r0 := WithNoise(Voter(3), 0)
	for k := 0; k <= 3; k++ {
		if r0.G(0, k) != Voter(3).G(0, k) {
			t.Error("WithNoise(r, 0) changed the rule")
		}
	}
}

func TestWithLaziness(t *testing.T) {
	r := WithLaziness(Minority(4), 0.3)
	if err := r.CheckProp3(); err != nil {
		t.Errorf("lazy rule must preserve Prop 3: %v", err)
	}
	if got, want := r.G(1, 2), 0.7*0.5+0.3; math.Abs(got-want) > 1e-12 {
		t.Errorf("lazy G(1, tie) = %v, want %v", got, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("WithLaziness(r, 1) did not panic")
			}
		}()
		WithLaziness(Voter(2), 1)
	}()
}

func TestMix(t *testing.T) {
	m, err := Mix(Voter(3), Minority(3), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// k=1: voter 1/3, minority 1 → mix 2/3.
	if got, want := m.G(0, 1), (1.0/3+1)/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mix.G(0,1) = %v, want %v", got, want)
	}
	if _, err := Mix(Voter(2), Voter(3), 0.5); err == nil {
		t.Error("Mix with unequal sample sizes should fail")
	}
	if _, err := Mix(Voter(2), Voter(2), 1.5); err == nil {
		t.Error("Mix with weight > 1 should fail")
	}
}

func TestSampleSchedules(t *testing.T) {
	if got := Fixed(5).Of(1000000); got != 5 {
		t.Errorf("Fixed(5).Of = %d", got)
	}
	// √(n ln n) at n = 1024: √(1024·6.93) ≈ 84.3 → ⌈⌉ = 85.
	if got := SqrtNLogN(1).Of(1024); got != 85 {
		t.Errorf("SqrtNLogN.Of(1024) = %d, want 85", got)
	}
	if got := LogN(1).Of(1024); got != 7 {
		t.Errorf("LogN.Of(1024) = %d, want 7", got)
	}
	if got := PowerN(1, 0.5).Of(100); got != 10 {
		t.Errorf("PowerN(1,0.5).Of(100) = %d, want 10", got)
	}
	// Degenerate n never yields ℓ < 1.
	for _, s := range []SampleSchedule{SqrtNLogN(1), LogN(1), PowerN(0.001, 0.5)} {
		if got := s.Of(1); got < 1 {
			t.Errorf("%s.Of(1) = %d < 1", s.Name(), got)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Fixed(0) did not panic")
			}
		}()
		Fixed(0)
	}()
}

func TestFamilies(t *testing.T) {
	f := MinorityFamily(SqrtNLogN(1))
	r := f.For(1024)
	if r.SampleSize() != 85 {
		t.Errorf("MinorityFamily rule sample size = %d, want 85", r.SampleSize())
	}
	cf := ConstantFamily(Voter(1))
	if cf.For(10) != cf.For(1000000) {
		t.Error("ConstantFamily must return the same rule for all n")
	}
	if got := VoterFamily(Fixed(1)).Name(); got != "Voter[ℓ=1]" {
		t.Errorf("family name = %q", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewFamily(nil) did not panic")
			}
		}()
		NewFamily("bad", nil)
	}()
}

func TestRuleString(t *testing.T) {
	if got := Voter(3).String(); got != "Voter(ℓ=3)" {
		t.Errorf("String = %q", got)
	}
}

func TestTablesCopies(t *testing.T) {
	r := Voter(2)
	g0, _ := r.Tables()
	g0[0] = 0.7
	if r.G(0, 0) != 0 {
		t.Error("Tables leaked internal state")
	}
}

func TestRandomRuleValid(t *testing.T) {
	g := rng.New(55)
	for i := 0; i < 50; i++ {
		r := Random(4, g)
		if err := r.CheckProp3(); err != nil {
			t.Fatalf("random rule violates Prop 3: %v", err)
		}
		for k := 0; k <= 4; k++ {
			for _, b := range []int{0, 1} {
				if v := r.G(b, k); v < 0 || v > 1 {
					t.Fatalf("random rule entry out of range: %v", v)
				}
			}
		}
	}
	// Distinct draws give distinct rules (overwhelmingly).
	a, b := Random(3, g), Random(3, g)
	same := true
	for k := 0; k <= 3; k++ {
		if a.G(0, k) != b.G(0, k) {
			same = false
		}
	}
	if same {
		t.Error("two random rules coincided")
	}
}
