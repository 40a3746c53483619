package experiments

import (
	"fmt"
	"math"

	"bitspread/internal/bias"
	"bitspread/internal/dual"
	"bitspread/internal/engine"
	"bitspread/internal/markov"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/stats"
	"bitspread/internal/table"
)

// figure1Escape reproduces Figure 1 / Theorem 6: a Markov chain that is a
// super-martingale on [a₁n, a₃n], cannot skip [a₁n, a₂n] in one step, and
// has √n-scale increments, started at (a₂+a₃)n/2, does not cross a₃n
// within T = n^{1-ε} steps — and the Doob decomposition behaves as the
// proof describes (M dominates Y; M stays in its Azuma corridor).
func figure1Escape() Experiment {
	return Experiment{
		ID:    "F1",
		Title: "Figure 1 / Theorem 6: martingale escape-time bound",
		Claim: "escape time across a₃n scales as n^≈1 ≫ n^{1-ε}; M_t ≥ Y_t throughout; Doob increments are O(√n)",
		Run: func(opts Options) (*Result, error) {
			ns := pick(opts, []int64{256, 1024, 4096}, []int64{1024, 8192, 65536, 524288})
			replicas := pick(opts, 25, 80)
			const a2, a3 = 0.50, 0.75
			// The driftless chain X_{t+1} ~ Binomial(n, X_t/n) satisfies
			// assumption (i) with equality, and (ii)-(iii) by Hoeffding:
			// the purest instance of the theorem (the Voter chain without
			// a source). Theorem 6 says escape needs ≥ n^{1-ε} steps for
			// every ε; the chain's true escape time is Θ(n), so the
			// finite-n signature is a scaling exponent ≈ 1 (it cannot
			// drop toward the n^{1/2}-style scaling a heavy-jump chain
			// would show).
			const a1 = 0.25
			tb := table.New("F1 — exit of the driftless chain from (a₁n, a₃n), started at (a₂+a₃)n/2",
				"n", "mean exit time", "p99", "frac exiting above", "max |ΔM|/√n", "M≥Y held")
			// F1 runs unjournaled: the benchmark's sweep pins the merged
			// journal of quick T1–T3 and F1, which F1's records would move.
			// A shard's journal is its only output, so a partition computes
			// none of F1; a single process and -join compute it in full.
			if opts.Journal.Partitioned() {
				return &Result{Table: tb}, nil
			}
			dominanceOK := true
			maxStepRatio := 0.0
			var xs, ys []float64
			unjournaled := opts
			unjournaled.Journal = nil
			type exit struct {
				T         int64 // exit round; 0: no exit within the limit
				Up, Dom   bool  // exited above a₃n; M ≥ Y held
				StepRatio float64
			}
			for _, n := range ns {
				x0 := int64((a2 + a3) / 2 * float64(n))
				limit := 100 * n // generous: exit is Θ(n)
				exits, err := replicate(unjournaled, "F1", subSeed(opts, uint64(n)), replicas, fmt.Sprintf("n=%d", n), func(_ int, g *rng.RNG) (e exit, _ error) {
					x := x0
					traj := make([]int64, 0, 1024)
					traj = append(traj, x)
					for t := int64(1); t <= limit; t++ {
						// Driftless: every agent resamples uniformly.
						//bitlint:probok x stays in [0,n] by construction and n >= 1, so the ratio is a probability
						x = g.Binomial(n, float64(x)/float64(n))
						traj = append(traj, x)
						if float64(x) >= a3*float64(n) || float64(x) <= a1*float64(n) {
							e.T, e.Up = t, float64(x) >= a3*float64(n)
							break
						}
					}
					// Doob decomposition with the exact drift oracle
					// E[X_{t+1}|X_t=x] = x and the proof's shift of 1.
					d := markov.Decompose(traj, 1, func(x int64) float64 { return float64(x) })
					e.Dom = d.DominanceHolds(1e-6)
					e.StepRatio = d.MaxMartingaleStep() / math.Sqrt(float64(n))
					return e, nil
				})
				if err != nil {
					return nil, err
				}
				var exitTimes []float64
				upExits := 0
				for _, e := range exits {
					if e.T > 0 {
						exitTimes = append(exitTimes, float64(e.T))
					}
					if e.Up {
						upExits++
					}
					dominanceOK = dominanceOK && e.Dom
					maxStepRatio = math.Max(maxStepRatio, e.StepRatio)
				}
				s := stats.Summarize(exitTimes)
				tb.AddRowf(n, s.Mean, s.P99, float64(upExits)/float64(replicas), maxStepRatio, dominanceOK)
				if s.N > 0 {
					xs = append(xs, float64(n))
					ys = append(ys, s.Mean)
				}
			}
			fit, err := stats.FitPower(xs, ys)
			if err != nil {
				return nil, err
			}
			tb.AddNote("exit-time fit: τ ≈ %.3f·n^%.3f (R²=%.3f); Theorem 6 forbids exponents below 1-ε", fit.Coeff, fit.Exponent, fit.R2)
			tb.AddNote("condition (iii) check: martingale increments stay O(√n·polylog); dominance is Claims 7+9")
			return &Result{
				Table: tb,
				Metrics: map[string]float64{
					"escape_exponent":    fit.Exponent,
					"fit_r2":             fit.R2,
					"max_step_per_sqrtn": maxStepRatio,
					"dominance_ok":       boolMetric(dominanceOK),
				},
				Verdict: fmt.Sprintf("interval exit time ~ n^%.3f (paper: ≥ n^{1-ε}, true order n); M≥Y always: %v; max |ΔM| = %.2f·√n",
					fit.Exponent, dominanceOK, maxStepRatio),
			}, nil
		},
	}
}

// figure2Case1 reproduces Figure 2 (Case 1 of Theorem 12): a rule whose
// bias is negative on the interval adjacent to 1 (Minority with constant
// ℓ), with correct opinion z=1, stays below a₃n for the whole n^{1-ε}
// budget.
func figure2Case1() Experiment {
	return Experiment{
		ID:    "F2",
		Title: "Figure 2 / Case 1: F<0 near p=1 traps the chain below a₃n (z=1)",
		Claim: "P(X reaches a₃n within n^0.9 rounds) ≈ 0 for Minority(ℓ=3) from X₀=(a₂+a₃)n/2",
		Run: func(opts Options) (*Result, error) {
			return runCaseFigure(opts, caseFigureParams{
				id:   "F2",
				rule: protocol.Minority(3),
			})
		},
	}
}

// figure3Case2 reproduces Figure 3 (Case 2): a rule whose bias is positive
// near 1 (Majority, BiasedVoter(+δ)), with correct opinion z=0, stays
// above a₁n for the whole budget.
func figure3Case2() Experiment {
	return Experiment{
		ID:    "F3",
		Title: "Figure 3 / Case 2: F>0 near p=1 traps the chain above a₁n (z=0)",
		Claim: "P(X reaches a₁n within n^0.9 rounds) ≈ 0 for Majority(3) and BiasedVoter(+0.05) from X₀=(a₁+a₂)n/2",
		Run: func(opts Options) (*Result, error) {
			return runCaseFigure(opts, caseFigureParams{
				id:   "F3",
				rule: protocol.Majority(3),
				more: []*protocol.Rule{protocol.BiasedVoter(3, 0.05)},
			})
		},
	}
}

type caseFigureParams struct {
	id   string
	rule *protocol.Rule
	more []*protocol.Rule
}

// runCaseFigure measures, for each rule, the probability of crossing the
// proof's blocking threshold within the n^{1-ε} budget, starting from the
// proof's X₀ with the adversarial z.
func runCaseFigure(opts Options, params caseFigureParams) (*Result, error) {
	ns := pick(opts, []int64{512, 2048}, []int64{4096, 65536, 1048576})
	replicas := pick(opts, 25, 100)
	const exp = 0.9
	rules := append([]*protocol.Rule{params.rule}, params.more...)
	tb := table.New(params.id+" — crossing probability of the blocking threshold within ⌈n^0.9⌉ rounds",
		"rule", "case", "n", "z", "X₀/n", "threshold/n", "P(cross ≤ T)")
	maxCross := 0.0
	for _, r := range rules {
		a := bias.For(r)
		c, ok := a.ProofConstants()
		if !ok {
			return nil, fmt.Errorf("experiments: %s: rule %v has zero bias, not a case rule", params.id, r)
		}
		for _, n := range ns {
			budget := polyCap(n, exp)
			x0 := int64(c.X0Frac * float64(n))
			// Case 1 blocks upward crossings of a₃; Case 2 blocks downward
			// crossings of a₁.
			up := c.Z == 1
			threshold := c.A3
			if !up {
				threshold = c.A1
			}
			crossed, err := replicate(opts, params.id, subSeed(opts, uint64(n)+hash(r.Name())), replicas, fmt.Sprintf("rule=%s n=%d", r.Name(), n), func(_ int, g *rng.RNG) (bool, error) {
				x := x0
				for t := int64(1); t <= budget; t++ {
					x = engine.StepCount(r, n, c.Z, x, g)
					if (up && float64(x) >= threshold*float64(n)) ||
						(!up && float64(x) <= threshold*float64(n)) {
						return true, nil
					}
				}
				return false, nil
			})
			if err != nil {
				return nil, err
			}
			rate := float64(count(crossed)) / float64(replicas)
			maxCross = math.Max(maxCross, rate)
			tb.AddRowf(r.Name(), a.Classify().String(), n, c.Z, c.X0Frac, threshold, rate)
		}
	}
	tb.AddNote("thresholds and starts derived from the rule's bias-root structure (Theorem 12 proof)")
	return &Result{
		Table: tb,
		Metrics: map[string]float64{
			"max_cross_rate": maxCross,
		},
		Verdict: fmt.Sprintf("max crossing probability %.3f within the n^0.9 budget (paper: ≈0)", maxCross),
	}, nil
}

// figure4Dual reproduces Figure 4 / Appendix B: the coalescing-walk dual
// of the Voter absorbs into the source within 2n·ln n rounds w.h.p., and
// the duality identity holds exactly on recorded executions.
func figure4Dual() Experiment {
	return Experiment{
		ID:    "F4",
		Title: "Figure 4 / Appendix B: coalescing-walk dual of the Voter",
		Claim: "P(full coalescence ≤ 2n·ln n) ≥ 1-1/n; duality identity exact",
		Run: func(opts Options) (*Result, error) {
			ns := pick(opts, []int64{64, 256}, []int64{256, 1024, 4096})
			replicas := pick(opts, 30, 100)
			tb := table.New("F4 — dual-process coalescence into the source",
				"n", "bound 2n·ln n", "P(coalesce ≤ bound)", "mean steps", "steps/bound")
			minRate := 1.0
			for _, n := range ns {
				bound := int64(2 * float64(n) * math.Log(float64(n)))
				runs, err := replicate(opts, "F4", subSeed(opts, uint64(n)*7), replicas, fmt.Sprintf("n=%d", n), func(_ int, g *rng.RNG) (dual.CoalescenceResult, error) {
					return dual.CoalescenceTime(n, bound, g, false), nil
				})
				if err != nil {
					return nil, err
				}
				var steps []float64
				for _, res := range runs {
					if res.Absorbed {
						steps = append(steps, float64(res.Steps))
					}
				}
				rate := float64(len(steps)) / float64(replicas)
				minRate = math.Min(minRate, rate)
				s := stats.Summarize(steps)
				tb.AddRowf(n, bound, rate, s.Mean, s.Mean/float64(bound))
			}

			// Exact duality identity on a recorded execution.
			g := rng.New(subSeed(opts, 4242))
			const dn, dz = 48, 1
			horizon := int(2 * dn * math.Log(dn))
			exec, err := dual.Run(dn, horizon, dz, dn/3, g)
			if err != nil {
				return nil, err
			}
			initial := exec.OpinionsAt(0)
			final := exec.OpinionsAt(horizon)
			identityViolations := 0
			for i := 0; i < dn; i++ {
				if final[i] != initial[exec.WalkEndpoint(i)] {
					identityViolations++
				}
				if exec.WalkHitsSource(i) && int(final[i]) != dz {
					identityViolations++
				}
			}
			tb.AddNote("duality identity checked on a recorded n=%d execution: %d violations", dn, identityViolations)
			return &Result{
				Table: tb,
				Metrics: map[string]float64{
					"min_coalesce_rate":   minRate,
					"identity_violations": float64(identityViolations),
				},
				Verdict: fmt.Sprintf("coalescence within 2n·ln n with probability ≥ %.3f (paper: ≥ 1-1/n); duality violations: %d (paper: 0, it is an identity)",
					minRate, identityViolations),
			}, nil
		},
	}
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
