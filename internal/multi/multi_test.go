package multi

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"bitspread/internal/engine"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

func TestValidateBuiltins(t *testing.T) {
	for _, r := range []Rule{
		Voter(2, 3), Voter(3, 4), Voter(5, 2),
		Minority(2, 3), Minority(3, 5), Minority(4, 4),
		stayRule{q: 3, ell: 2},
	} {
		if err := Validate(r); err != nil {
			t.Errorf("%s: %v", r.Name(), err)
		}
	}
}

func TestValidateRejectsUnseenAdoption(t *testing.T) {
	if err := Validate(badRule{}); !errors.Is(err, ErrSupport) {
		t.Errorf("error = %v, want ErrSupport", err)
	}
}

// stayRule keeps the current opinion regardless of the sample — a
// degenerate control that trivially satisfies the support constraint and
// never converges.
type stayRule struct{ q, ell int }

func (r stayRule) Name() string    { return fmt.Sprintf("Stay(q=%d)", r.q) }
func (r stayRule) Opinions() int   { return r.q }
func (r stayRule) SampleSize() int { return r.ell }

func (r stayRule) AdoptDist(b int, counts []int) []float64 {
	d := make([]float64, r.q)
	d[b] = 1
	return d
}

// badRule always adopts opinion 2 even when unseen.
type badRule struct{}

func (badRule) Name() string    { return "bad" }
func (badRule) Opinions() int   { return 3 }
func (badRule) SampleSize() int { return 2 }
func (badRule) AdoptDist(b int, counts []int) []float64 {
	return []float64{0, 0, 1}
}

func TestEnumerateProfiles(t *testing.T) {
	// C(ℓ+q-1, q-1) profiles: q=3, ℓ=4 → C(6,2) = 15.
	count := 0
	enumerateProfiles(3, 4, func(counts []int) {
		sum := 0
		for _, c := range counts {
			sum += c
		}
		if sum != 4 {
			t.Fatalf("profile %v does not sum to 4", counts)
		}
		count++
	})
	if count != 15 {
		t.Errorf("enumerated %d profiles, want 15", count)
	}
}

func TestMultinomialPMFSumsToOne(t *testing.T) {
	p := []float64{0.2, 0.5, 0.3}
	for _, ell := range []int{1, 3, 6} {
		sum := 0.0
		enumerateProfiles(3, ell, func(counts []int) {
			sum += multinomialPMF(ell, counts, p)
		})
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("ℓ=%d: pmf sums to %v", ell, sum)
		}
	}
	// Zero-probability category: profiles touching it get 0.
	if got := multinomialPMF(2, []int{1, 1, 0}, []float64{0, 0.5, 0.5}); got != 0 {
		t.Errorf("impossible profile pmf = %v", got)
	}
}

func TestMinorityProfileDecisions(t *testing.T) {
	r := Minority(3, 4)
	tests := []struct {
		counts []int
		want   []float64
	}{
		{[]int{4, 0, 0}, []float64{1, 0, 0}},     // unanimous
		{[]int{3, 1, 0}, []float64{0, 1, 0}},     // 1 is minority
		{[]int{2, 1, 1}, []float64{0, 0.5, 0.5}}, // tie between 1 and 2
		{[]int{2, 2, 0}, []float64{0.5, 0.5, 0}}, // two-way tie
	}
	for _, tt := range tests {
		got := r.AdoptDist(0, tt.counts)
		for j := range tt.want {
			if math.Abs(got[j]-tt.want[j]) > 1e-12 {
				t.Errorf("AdoptDist(%v) = %v, want %v", tt.counts, got, tt.want)
			}
		}
	}
}

// TestBinaryReduction is footnote 2 made executable: on configurations
// using only opinions {0,1}, the q=3 Voter and Minority step
// distributions must match the binary engines exactly (same conditional
// means, and opinion 2 never appears).
func TestBinaryReduction(t *testing.T) {
	const (
		n    = 300
		x1   = 120
		z    = 1
		reps = 2000
	)
	cases := []struct {
		name   string
		multi  Rule
		binary *protocol.Rule
	}{
		{"voter", Voter(3, 1), protocol.Voter(1)},
		{"minority", Minority(3, 3), protocol.Minority(3)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := float64(x1) / n
			wantMean := float64(z) + float64(x1-z)*tc.binary.AdoptProb(1, p) +
				float64(n-x1-(1-z))*tc.binary.AdoptProb(0, p)

			g := rng.New(31)
			sum := 0.0
			for i := 0; i < reps; i++ {
				next := Step(tc.multi, n, z, []int64{n - x1, x1, 0}, g)
				if next[2] != 0 {
					t.Fatal("opinion 2 appeared from a binary configuration")
				}
				if next[0]+next[1] != n {
					t.Fatal("population not conserved")
				}
				sum += float64(next[1])
			}
			mean := sum / reps
			se := math.Sqrt(float64(n) / 4 / reps)
			if math.Abs(mean-wantMean) > 6*se {
				t.Errorf("multi mean = %v, binary predicts %v (±%v)", mean, wantMean, 6*se)
			}
		})
	}
}

func TestBinaryReductionFullRun(t *testing.T) {
	// End-to-end: the q=3 Voter from a binary worst-case start converges
	// to z with opinion 2 never appearing; convergence times are in the
	// same regime as the binary Voter.
	const n, z = 128, 0
	cfg := Config{
		N:    n,
		Rule: Voter(3, 1),
		Z:    z,
		X0:   []int64{1, n - 1, 0},
	}
	sawThird := false
	cfg.Record = func(_ int64, counts []int64) {
		if counts[2] != 0 {
			sawThird = true
		}
	}
	res, err := RunParallel(cfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if sawThird {
		t.Error("unseen opinion appeared during a binary-start run")
	}

	bin, err := engine.RunParallel(engine.Config{
		N: n, Rule: protocol.Voter(1), Z: z, X0: engine.WorstCaseInit(n, z),
	}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	// Same regime, not same value: within a factor 20 on one seed.
	ratio := float64(res.Rounds) / float64(bin.Rounds)
	if ratio < 0.05 || ratio > 20 {
		t.Errorf("multi τ=%d vs binary τ=%d: regimes diverge", res.Rounds, bin.Rounds)
	}
}

func TestThreeOpinionVoterConverges(t *testing.T) {
	const n = 90
	res, err := RunParallel(Config{
		N:    n,
		Rule: Voter(3, 1),
		Z:    2,
		X0:   []int64{30, 30, 30},
	}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Final[2] != n {
		t.Fatalf("3-opinion voter: %+v", res)
	}
}

func TestStayRuleNeverConverges(t *testing.T) {
	res, err := RunParallel(Config{
		N:         20,
		Rule:      stayRule{q: 3, ell: 1},
		Z:         0,
		X0:        []int64{10, 5, 5},
		MaxRounds: 50,
	}, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("stay rule converged")
	}
	if res.Final[0] != 10 || res.Final[1] != 5 || res.Final[2] != 5 {
		t.Errorf("stay rule moved the histogram: %v", res.Final)
	}
}

func TestConsensusAbsorbing(t *testing.T) {
	g := rng.New(11)
	for i := 0; i < 50; i++ {
		next := Step(Minority(3, 3), 60, 1, []int64{0, 60, 0}, g)
		if next[1] != 60 {
			t.Fatalf("consensus not absorbing: %v", next)
		}
	}
}

func TestPopulationConservedQuick(t *testing.T) {
	g := rng.New(12)
	rules := []Rule{Voter(3, 2), Minority(4, 3), stayRule{q: 3, ell: 1}}
	for trial := 0; trial < 300; trial++ {
		r := rules[trial%len(rules)]
		q := r.Opinions()
		n := int64(50 + trial%100)
		x := make([]int64, q)
		left := n
		for j := 0; j < q-1; j++ {
			v := int64(g.Intn(int(left + 1)))
			x[j] = v
			left -= v
		}
		x[q-1] = left
		z := 0
		if x[0] == 0 {
			x[0] = 1
			x[q-1]--
			if x[q-1] < 0 {
				continue
			}
		}
		next := Step(r, n, z, x, g)
		var sum int64
		for _, c := range next {
			if c < 0 {
				t.Fatalf("negative count in %v", next)
			}
			sum += c
		}
		if sum != n {
			t.Fatalf("population changed: %v sums to %d, want %d", next, sum, n)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	r := Voter(3, 1)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil rule", Config{N: 10, Z: 0, X0: []int64{10, 0, 0}}},
		{"tiny population", Config{N: 1, Rule: r, Z: 0, X0: []int64{1, 0, 0}}},
		{"bad z", Config{N: 10, Rule: r, Z: 3, X0: []int64{10, 0, 0}}},
		{"wrong histogram length", Config{N: 10, Rule: r, Z: 0, X0: []int64{10, 0}}},
		{"negative count", Config{N: 10, Rule: r, Z: 0, X0: []int64{11, -1, 0}}},
		{"wrong sum", Config{N: 10, Rule: r, Z: 0, X0: []int64{5, 0, 0}}},
		{"source missing", Config{N: 10, Rule: r, Z: 0, X0: []int64{0, 10, 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := RunParallel(tc.cfg, rng.New(1)); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}
