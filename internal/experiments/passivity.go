package experiments

import (
	"fmt"
	"math"

	"bitspread/internal/gossip"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/stats"
	"bitspread/internal/table"
)

// x8PricePassivity contrasts the paper's passive-communication model
// against classical active rumor spreading: with active push&pull a
// single informed agent reaches everyone in Θ(log n) rounds, while the
// passive memory-less Voter needs Θ(n log n) (Theorem 2) and no passive
// memory-less constant-ℓ protocol can beat n^{1-ε} (Theorem 1). The gap
// is the price of the model's defining constraint (§1: agents "can only
// disclose their current decision", after [7, 8]).
func x8PricePassivity() Experiment {
	return Experiment{
		ID:    "X8",
		Title: "The price of passivity: active gossip vs passive bit dissemination",
		Claim: "push&pull completes in Θ(log n) rounds; the passive Voter needs Θ(n log n): the gap grows ~n",
		Run: func(opts Options) (*Result, error) {
			ns := pick(opts, []int64{1024, 4096, 16384}, []int64{4096, 32768, 262144})
			replicas := pick(opts, 15, 50)
			tb := table.New("X8 — rounds to full dissemination from a single informed agent",
				"n", "push&pull (active)", "/log₂n", "Voter (passive)", "gap factor")
			var gapNs, gaps []float64
			maxLogRatio := 0.0
			for _, n := range ns {
				rounds, err := replicate(opts, "X8", subSeed(opts, uint64(n)*23), replicas, fmt.Sprintf("n=%d", n), func(_ int, g *rng.RNG) (float64, error) {
					res, err := gossip.Spread(gossip.Config{
						N: n, Informed0: 1, Mode: gossip.PushPull,
					}, g)
					if err == nil && !res.Completed {
						err = fmt.Errorf("experiments: X8 gossip did not complete at n=%d", n)
					}
					return float64(res.Rounds), err
				})
				if err != nil {
					return nil, err
				}
				activeMean := stats.Summarize(rounds).Mean
				logRatio := activeMean / math.Log2(float64(n))
				maxLogRatio = math.Max(maxLogRatio, logRatio)

				m, err := measure(opts, "x8-voter",
					worstCaseTask(protocol.Voter(1), n, 1, 0), replicas, uint64(n)*29)
				if err != nil {
					return nil, err
				}
				gap := m.meanTau / activeMean
				gapNs = append(gapNs, float64(n))
				gaps = append(gaps, gap)
				tb.AddRowf(n, activeMean, logRatio, m.meanTau, gap)
			}
			fit, err := stats.FitPower(gapNs, gaps)
			if err != nil {
				return nil, err
			}
			tb.AddNote("gap-factor scaling: ~n^%.2f (prediction: ≈1, the active/passive separation is linear in n)", fit.Exponent)
			return &Result{
				Table: tb,
				Metrics: map[string]float64{
					"active_per_log2n": maxLogRatio,
					"gap_exponent":     fit.Exponent,
				},
				Verdict: fmt.Sprintf(
					"active push&pull ≤ %.2f·log₂n rounds; passive/active gap grows as n^%.2f (paper: the passivity constraint costs a ~linear factor)",
					maxLogRatio, fit.Exponent),
			}, nil
		},
	}
}
