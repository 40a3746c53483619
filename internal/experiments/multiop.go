package experiments

import (
	"fmt"
	"math"

	"bitspread/internal/bias"
	"bitspread/internal/multi"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/table"
)

// x5MultiOpinion makes the paper's footnote 2 executable: with more than
// two opinions — under the constraint that agents never adopt an opinion
// they have not seen — a binary initial configuration evolves exactly as
// a binary protocol, so the Ω(n^{1-ε}) lower bound transfers. The
// experiment (a) verifies the reduction dynamically (unseen opinions
// never appear; the binary drift identity of Prop 5 holds for the
// restricted process), and (b) shows the q=3 chain from the binary
// adversarial start is as slow as its binary counterpart.
func x5MultiOpinion() Experiment {
	return Experiment{
		ID:    "X5",
		Title: "Footnote 2: the lower bound transfers to q > 2 opinions",
		Claim: "from binary starts, q=3 rules reduce exactly to their binary counterparts; the adversarial slowness carries over",
		Run: func(opts Options) (*Result, error) {
			ns := pick(opts, []int64{512, 2048}, []int64{4096, 32768, 262144})
			replicas := pick(opts, 20, 80)
			const exp = 0.9

			tb := table.New("X5 — q=3 Minority(ℓ=3) from the binary adversarial start (z=1)",
				"n", "budget", "P(converge ≤ budget)", "unseen-opinion rounds", "max drift dev")

			binary := protocol.Minority(3)
			a := bias.For(binary)
			c, _ := a.ProofConstants()
			rule := multi.Minority(3, 3)
			if err := multi.Validate(rule); err != nil {
				return nil, fmt.Errorf("experiments: X5 rule invalid: %w", err)
			}

			maxRate, worstDrift := 0.0, 0.0
			unseenTotal := 0
			type run struct {
				Converged bool
				Unseen    int       // rounds in which opinion 2 appeared
				Excursion []float64 // one-round deviations beyond 8√n, in order
			}
			for _, n := range ns {
				budget := polyCap(n, exp)
				// Mid-interval binary start, as in T1's trapped rows.
				x1 := int64((c.A1 + c.A3) / 2 * float64(n))
				runs, err := replicate(opts, "X5", subSeed(opts, uint64(n)*17), replicas, fmt.Sprintf("n=%d", n), func(_ int, g *rng.RNG) (r run, _ error) {
					x := []int64{n - x1, x1, 0}
					for t := int64(1); t <= budget; t++ {
						// Binary drift prediction before stepping.
						predicted := a.ExpectedNext(n, x[1])
						x = multi.Step(rule, n, 1, x, g)
						if x[2] != 0 {
							r.Unseen++
						}
						// Prop 5 transfers to the restricted process: the
						// one-round mean must track x + nF(x/n) within ±1
						// plus sampling noise; track the systematic part
						// via a single-step deviation cap of O(√n·log n).
						if dev := math.Abs(float64(x[1]) - predicted); dev > 8*math.Sqrt(float64(n)) {
							r.Excursion = append(r.Excursion, dev)
						}
						if x[1] == n {
							r.Converged = true
							break
						}
					}
					return r, nil
				})
				if err != nil {
					return nil, err
				}
				converged := 0
				for _, r := range runs {
					if r.Converged {
						converged++
					}
					unseenTotal += r.Unseen
					for _, dev := range r.Excursion {
						if dev > worstDrift {
							worstDrift = dev / math.Sqrt(float64(n))
						}
					}
				}
				rate := float64(converged) / float64(replicas)
				maxRate = math.Max(maxRate, rate)
				tb.AddRowf(n, budget, rate, unseenTotal, worstDrift)
			}
			tb.AddNote("binary adversarial start X₀/n=%.3f from the Minority(3) bias analysis; opinion 2 starts empty", (c.A1+c.A3)/2)
			return &Result{
				Table: tb,
				Metrics: map[string]float64{
					"max_rate":       maxRate,
					"unseen_rounds":  float64(unseenTotal),
					"max_drift_sdev": worstDrift,
				},
				Verdict: fmt.Sprintf(
					"q=3 convergence rate ≤ %.3f within n^0.9 (binary bound transfers); unseen opinion appeared in %d rounds (exact reduction: 0); drift excursions beyond 8√n: %.2f",
					maxRate, unseenTotal, worstDrift),
			}, nil
		},
	}
}
