package experiments

import (
	"fmt"
	"math"

	"bitspread/internal/engine"
	"bitspread/internal/memory"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/stats"
	"bitspread/internal/table"
)

// x4MemoryAblation probes the paper's closing question (§5): does the
// lower bound survive bounded memory? Three rows per n:
//
//   - 0 bits (memory-less Minority(3), adversarial start): trapped, per
//     Theorem 1;
//   - O(log n) bits, shared clock (synchronized accumulator): converges in
//     Õ(√n) ≪ n^{1-ε} rounds by the window-by-window reduction to [15];
//   - O(log n) bits, adversarial phases: oscillates macroscopically,
//     visiting near-consensus without locking it — memory alone does not
//     replace synchrony.
func x4MemoryAblation() Experiment {
	return Experiment{
		ID:    "X4",
		Title: "§5 ablation: memory × synchrony vs the lower bound",
		Claim: "constant ℓ + O(log n) bits + shared clock beats n^{1-ε}; dropping either memory or the clock restores slowness",
		Run: func(opts Options) (*Result, error) {
			ns := pick(opts, []int64{1024, 2048}, []int64{2048, 8192, 32768})
			replicas := pick(opts, 6, 24)
			const ell = 3
			tb := table.New("X4 — Minority(ℓ=3) variants from hard starts, budget ⌈n^0.9⌉ rounds",
				"variant", "memory bits", "n", "P(converge ≤ budget)", "mean τ", "final frac (stalled)")

			syncMin, zeroMax, unsyncMax := 1.0, 0.0, 0.0
			var syncNs, syncTaus []float64
			for _, n := range ns {
				budget := polyCap(n, 0.9)
				// The 1.2 factor keeps the pooled sample size comfortably inside
				// the Ω(√(n log n)) regime of [15] at small n.
				window := int(math.Ceil(1.2 * math.Sqrt(float64(n)*math.Log(float64(n))) / ell))

				// Row 1: memory-less control from the Theorem 12 start.
				ctrlCfg, c := engine.AdversarialConfig(protocol.Minority(ell), n, budget)
				ctrlCfg.X0 = int64((c.A1 + c.A3) / 2 * float64(n))
				m, err := measure(opts, "x4-ctrl", ctrlCfg, replicas, uint64(n))
				if err != nil {
					return nil, err
				}
				zeroMax = math.Max(zeroMax, m.rate)
				tb.AddRowf("memory-less", 0, n, m.rate, m.meanTau, "-")

				// Rows 2–3: the accumulator, synchronized and not.
				for _, row := range []struct {
					name   string
					synced bool
					salt   uint64
				}{{"accumulator+clock", true, 1}, {"accumulator, no clock", false, 2}} {
					name, synced := row.name, row.synced
					proto, err := memory.NewAccumulatorMinority(ell, window, synced)
					if err != nil {
						return nil, err
					}
					runs, err := replicate(opts, "X4/"+name, subSeed(opts, uint64(n)*11+row.salt), replicas, fmt.Sprintf("n=%d window=%d budget=%d", n, window, budget), func(_ int, g *rng.RNG) (memory.Result, error) {
						return memory.Run(memory.Config{
							N:                 n,
							Protocol:          proto,
							Z:                 1,
							X0:                1, // all wrong
							AdversarialMemory: !synced,
							MaxRounds:         budget,
							Probe:             opts.Probe,
						}, g)
					})
					if err != nil {
						return nil, err
					}
					var taus, fracs []float64
					for _, res := range runs {
						if res.Converged {
							taus = append(taus, float64(res.Rounds))
						} else {
							fracs = append(fracs, float64(res.FinalCount)/float64(n))
						}
					}
					rate := float64(len(taus)) / float64(replicas)
					meanTau := math.NaN()
					if len(taus) > 0 {
						meanTau = stats.Summarize(taus).Mean
					}
					stalled := "-"
					if len(fracs) > 0 {
						stalled = fmt.Sprintf("%.3f", stats.Summarize(fracs).Mean)
					}
					tb.AddRowf(name, proto.StateBits(), n, rate, meanTau, stalled)
					if synced {
						syncMin = math.Min(syncMin, rate)
						if len(taus) > 0 {
							syncNs = append(syncNs, float64(n))
							syncTaus = append(syncTaus, stats.Summarize(taus).Mean)
						}
					} else {
						unsyncMax = math.Max(unsyncMax, rate)
					}
				}
			}
			exponent := math.NaN()
			if len(syncNs) >= 2 {
				if fit, err := stats.FitPower(syncNs, syncTaus); err == nil {
					exponent = fit.Exponent
					tb.AddNote("synchronized accumulator τ scaling: ~n^%.2f (reduction to [15] predicts ≈0.5, i.e. Õ(√n))", exponent)
				}
			}
			tb.AddNote("window w = ⌈1.2·√(n ln n)/ℓ⌉; 'no clock' = adversarial phases and memory (self-stabilizing regime)")
			return &Result{
				Table: tb,
				Metrics: map[string]float64{
					"memoryless_rate_max": zeroMax,
					"sync_rate_min":       syncMin,
					"unsync_rate_max":     unsyncMax,
					"sync_tau_exponent":   exponent,
				},
				Verdict: fmt.Sprintf(
					"memory-less: rate ≤ %.2f (trapped); memory+clock: rate ≥ %.2f within n^0.9, τ~n^%.2f; memory without clock: rate ≤ %.2f (oscillates, no lock-in) — both memory AND synchrony are load-bearing",
					zeroMax, syncMin, exponent, unsyncMax),
			}, nil
		},
	}
}
