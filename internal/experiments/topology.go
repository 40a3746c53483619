package experiments

import (
	"fmt"
	"math"

	"bitspread/internal/graph"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/stats"
	"bitspread/internal/table"
)

// x9Topology probes the model's complete-interaction assumption, in the
// spirit of the related opinion-dynamics work on graphs ([24]): restrict
// the ℓ samples to graph neighbors and measure how the Voter's
// source-driven convergence degrades with mixing. Prediction: complete
// and well-connected expanders (G(n,p) above the connectivity threshold)
// behave alike; low-dimensional lattices are polynomially slower; and the
// ordering complete ≤ G(n,p) ≪ torus ≪ ring holds throughout.
func x9Topology() Experiment {
	return Experiment{
		ID:    "X9",
		Title: "Topology sensitivity: bit dissemination beyond the complete graph",
		Claim: "Voter convergence time ordering: complete ≈ G(n,p) ≪ torus ≪ ring (mixing controls the source's reach)",
		Run: func(opts Options) (*Result, error) {
			side := pick(opts, 8, 16) // torus side; n = side²
			replicas := pick(opts, 8, 24)
			n := side * side
			capRounds := int64(n) * int64(n) * 8 // the 1-D ring needs Θ(n²)

			builders := []struct {
				name  string
				build func(g *rng.RNG) (graph.Topology, error)
			}{
				{"complete", func(*rng.RNG) (graph.Topology, error) { return graph.NewComplete(n) }},
				{"G(n, 4ln n/n)", func(g *rng.RNG) (graph.Topology, error) {
					p := 4 * math.Log(float64(n)) / float64(n)
					return graph.NewErdosRenyi(n, p, g)
				}},
				{"torus", func(*rng.RNG) (graph.Topology, error) { return graph.NewTorus(side, side) }},
				{"ring(k=1)", func(*rng.RNG) (graph.Topology, error) { return graph.NewRing(n, 1) }},
			}

			tb := table.New(fmt.Sprintf("X9 — Voter convergence from the all-wrong start by topology (n=%d, z=1)", n),
				"topology", "P(converge)", "mean τ", "τ / complete τ")
			means := make(map[string]float64, len(builders))
			minRate := 1.0
			for bi, b := range builders {
				runs, err := replicate(opts, "X9/"+b.name, subSeed(opts, uint64(bi)*37+11), replicas, fmt.Sprintf("side=%d", side), func(_ int, g *rng.RNG) (graph.Result, error) {
					topo, err := b.build(g)
					if err != nil {
						return graph.Result{}, fmt.Errorf("experiments: X9 %s: %w", b.name, err)
					}
					return graph.Run(graph.Config{
						Topology:    topo,
						Rule:        protocol.Voter(1),
						Z:           1,
						InitialOnes: 0,
						MaxRounds:   capRounds,
						Probe:       opts.Probe,
					}, g)
				})
				if err != nil {
					return nil, err
				}
				var taus []float64
				for _, res := range runs {
					if res.Converged {
						taus = append(taus, float64(res.Rounds))
					}
				}
				rate := float64(len(taus)) / float64(replicas)
				minRate = math.Min(minRate, rate)
				mean := math.NaN()
				if len(taus) > 0 {
					mean = stats.Summarize(taus).Mean
				}
				means[b.name] = mean
				ratio := mean / means["complete"]
				tb.AddRowf(b.name, rate, mean, ratio)
			}
			tb.AddNote("the source sits at node 0 (a hub for the star/ring labelings); ring runs are capped at 8n² rounds")

			slowRing := means["ring(k=1)"] / means["complete"]
			slowTorus := means["torus"] / means["complete"]
			erRatio := means["G(n, 4ln n/n)"] / means["complete"]
			return &Result{
				Table: tb,
				Metrics: map[string]float64{
					"min_rate":             minRate,
					"ring_slowdown":        slowRing,
					"torus_slowdown":       slowTorus,
					"expander_vs_complete": erRatio,
				},
				Verdict: fmt.Sprintf(
					"all topologies converged (min rate %.2f); slowdowns vs complete: expander %.1f×, torus %.1f×, ring %.1f× (paper's uniform-sampling assumption = the fastest case)",
					minRate, erRatio, slowTorus, slowRing),
			}, nil
		},
	}
}
