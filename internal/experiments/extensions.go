package experiments

import (
	"fmt"
	"math"

	"bitspread/internal/engine"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/table"
)

// x1Threshold probes the paper's open question (§1.2, §5): between the
// Ω(1) lower bound and the O(√(n log n)) upper bound, at what sample size
// does the Minority dynamics become fast? The paper notes that
// "simulations suggest that its convergence might be fast even when the
// sample size is qualitatively small".
func x1Threshold() Experiment {
	return Experiment{
		ID:    "X1",
		Title: "Open question: Minority's sample-size threshold",
		Claim: "convergence within a polylog budget switches on well below ℓ=√(n ln n)",
		Run: func(opts Options) (*Result, error) {
			n := pick(opts, int64(2048), int64(65536))
			replicas := pick(opts, 12, 50)
			logn := math.Log(float64(n))
			budget := int64(60 * logn * logn) // a generous polylog budget
			sqrtEll := protocol.SqrtNLogN(1).Of(n)

			ells := []int{1, 2, 3, 5, 8, 13, 21, 34, 55}
			for _, extra := range []int{sqrtEll / 4, sqrtEll / 2, sqrtEll} {
				if extra > ells[len(ells)-1] {
					ells = append(ells, extra)
				}
			}

			tb := table.New(fmt.Sprintf("X1 — Minority convergence within a polylog budget (n=%d, budget=%d rounds, all-wrong start)", n, budget),
				"ℓ", "P(converge) [95% CI]", "mean τ (converged)")
			smallest := math.Inf(1)
			rateAtSqrt := 0.0
			for _, ell := range ells {
				cfg := worstCaseTask(protocol.Minority(ell), n, 1, budget)
				m, err := measure(opts, "x1", cfg, replicas, uint64(ell)*101)
				if err != nil {
					return nil, err
				}
				tb.AddRow(fmt.Sprint(ell), fmtRate(m), fmtF(m.meanTau))
				if m.rate >= 0.9 && float64(ell) < smallest {
					smallest = float64(ell)
				}
				if ell == sqrtEll {
					rateAtSqrt = m.rate
				}
			}
			tb.AddNote("√(n ln n) = %d for this n; the proof in [15] needs ℓ ≥ that", sqrtEll)
			return &Result{
				Table: tb,
				Metrics: map[string]float64{
					"smallest_fast_ell": smallest,
					"sqrt_ell":          float64(sqrtEll),
					"rate_at_sqrt_ell":  rateAtSqrt,
				},
				Verdict: fmt.Sprintf("smallest ℓ with ≥90%% convergence inside the polylog budget: %v (vs ℓ=√(n ln n)=%d required by the [15] analysis)",
					fmtF(smallest), sqrtEll),
			}, nil
		},
	}
}

// x2MajorityFails demonstrates the §1 remark that majority-like dynamics
// "lack sensitivity towards an informed individual, and in fact, fail in
// general to solve the bit-dissemination problem": from a wrong-leaning
// start, Majority locks the wrong consensus, while Minority with the same
// large sample size recovers.
func x2MajorityFails() Experiment {
	return Experiment{
		ID:    "X2",
		Title: "Majority dynamics fails bit dissemination",
		Claim: "from a wrong-leaning start Majority converges to the wrong consensus; Minority (large ℓ) still solves the instance",
		Run: func(opts Options) (*Result, error) {
			n := pick(opts, int64(1024), int64(16384))
			replicas := pick(opts, 20, 100)
			ell := protocol.SqrtNLogN(1).Of(n)
			// Both rules converge (when they do) in polylog rounds at this
			// sample size; a generous polylog budget keeps trapped Majority
			// runs from burning an O(n log n) default cap.
			logn := math.Log(float64(n))
			budget := int64(200 * logn * logn)
			starts := []struct {
				name string
				frac float64
			}{
				{"25% correct", 0.25},
				{"40% correct", 0.40},
				{"all wrong", 0.0},
			}
			tb := table.New(fmt.Sprintf("X2 — correct opinion z=1, n=%d: Majority vs Minority from wrong-leaning starts", n),
				"start", "rule", "P(correct consensus)", "P(wrong consensus visit)")
			majorityWorst, minorityWorst := 1.0, 1.0
			for _, st := range starts {
				x0 := int64(st.frac * float64(n))
				if x0 < 1 {
					x0 = 1
				}
				for _, rl := range []*protocol.Rule{protocol.Majority(ell), protocol.Minority(ell)} {
					cfg := engine.Config{N: n, Rule: rl, Z: 1, X0: x0, MaxRounds: budget}
					m, err := measure(opts, "x2", cfg, replicas, uint64(x0)+hash(rl.Name()))
					if err != nil {
						return nil, err
					}
					wrongVisits := 0
					for _, res := range m.out.Results {
						if res.HitWrongConsensus {
							wrongVisits++
						}
					}
					tb.AddRowf(st.name, rl.Name(), m.rate, float64(wrongVisits)/float64(replicas))
					if rl.Name() == "Majority" {
						majorityWorst = math.Min(majorityWorst, m.rate)
					} else {
						minorityWorst = math.Min(minorityWorst, m.rate)
					}
				}
			}
			tb.AddNote("both rules use ℓ=√(n ln n)=%d: the gap is about source sensitivity, not sample size", ell)
			return &Result{
				Table: tb,
				Metrics: map[string]float64{
					"majority_worst_rate": majorityWorst,
					"minority_worst_rate": minorityWorst,
				},
				Verdict: fmt.Sprintf("Majority worst-case success %.2f (paper: fails); Minority worst-case success %.2f (paper: solves)",
					majorityWorst, minorityWorst),
			}, nil
		},
	}
}

// x3SampleSizeBoundary demonstrates the §1.2 obstruction to extending the
// lower bound past ℓ = Ω(log n): with logarithmic samples a protocol can
// cross a constant-width interval of the configuration space in a single
// round w.h.p. — exactly what Proposition 4 forbids for constant ℓ.
func x3SampleSizeBoundary() Experiment {
	return Experiment{
		ID:    "X3",
		Title: "Why the technique stops at ℓ=Ω(log n): one-round teleports",
		Claim: "P(X jumps 0.2n → ≥0.9n in one round) ≈ 0 for constant ℓ but → 1 for ℓ = 6·ln n (rule: adopt 1 on any 1-sample)",
		Run: func(opts Options) (*Result, error) {
			ns := pick(opts, []int64{512, 2048}, []int64{4096, 65536, 1048576})
			trials := pick(opts, 300, 2000)
			tb := table.New("X3 — one-round jump probability from X=0.2n to ≥0.9n (rule: Follower(θ=1))",
				"ℓ schedule", "n", "ℓ", "P(teleport)")
			maxConstant, minLog := 0.0, 1.0
			schedules := []struct {
				name string
				of   func(n int64) int
				kind string
			}{
				{"constant ℓ=4", func(int64) int { return 4 }, "const"},
				{"constant ℓ=8", func(int64) int { return 8 }, "const"},
				{"ℓ=⌈6·ln n⌉", func(n int64) int { return protocol.LogN(6).Of(n) }, "log"},
			}
			// One replica per (schedule, n) cell: a cell's trials share one
			// stream.
			jumps, err := replicate(opts, "X3", opts.Seed, len(schedules)*len(ns), fmt.Sprintf("ns=%v trials=%d", ns, trials), func(k int, _ *rng.RNG) (int, error) {
				sc, n := schedules[k/len(ns)], ns[k%len(ns)]
				r := protocol.Follower(sc.of(n), 1)
				x0 := int64(0.2 * float64(n))
				g := rng.New(subSeed(opts, uint64(n)+hash(sc.name)))
				jumps := 0
				for tr := 0; tr < trials; tr++ {
					if float64(engine.StepCount(r, n, 1, x0, g)) >= 0.9*float64(n) {
						jumps++
					}
				}
				return jumps, nil
			})
			if err != nil {
				return nil, err
			}
			for i, sc := range schedules {
				for j, n := range ns {
					rate := float64(jumps[i*len(ns)+j]) / float64(trials)
					tb.AddRowf(sc.name, n, sc.of(n), rate)
					if sc.kind == "const" {
						maxConstant = math.Max(maxConstant, rate)
					} else {
						minLog = math.Min(minLog, rate)
					}
				}
			}
			tb.AddNote("Proposition 4 bounds one-round growth for constant ℓ; with ℓ=Θ(log n) the bound's premise fails")
			return &Result{
				Table: tb,
				Metrics: map[string]float64{
					"const_teleport_max": maxConstant,
					"log_teleport_min":   minLog,
				},
				Verdict: fmt.Sprintf("constant-ℓ teleport probability ≤ %.4f (paper: exp(-Ω(√n))); log-ℓ teleport probability ≥ %.3f (paper: →1)",
					maxConstant, minLog),
			}, nil
		},
	}
}
