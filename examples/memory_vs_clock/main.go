// Memory versus clock: the paper's §5 question, measured.
//
// Theorem 1 forbids fast bit dissemination with constant samples and no
// memory. This example runs the three-way ablation of experiment X4 on a
// single instance and prints the trajectories side by side:
//
//   - memory-less Minority(3) from the adversarial start: parked at the
//     p = 1/2 attractor;
//   - the accumulator protocol (constant ℓ, O(log n) bits, shared clock):
//     pools w rounds of samples and replays the big-sample Minority of
//     [15] window by window — converges in Õ(√n) rounds;
//   - the same accumulator with adversarial phases (no shared clock):
//     drives close to the correct consensus but never locks it, because
//     exact consensus needs the whole population to flip in one round.
//
// Run with:
//
//	go run ./examples/memory_vs_clock
package main

import (
	"fmt"
	"log"
	"math"

	"bitspread"
)

const (
	n    = 4096
	ell  = 3
	z    = 1
	seed = 21
)

func main() {
	budget := int64(math.Pow(n, 0.9))
	window := int(math.Ceil(1.2 * math.Sqrt(n*math.Log(n)) / ell))
	fmt.Printf("n=%d, ℓ=%d, window w=%d, budget ⌈n^0.9⌉ = %d rounds\n\n", n, ell, window, budget)

	// 1. Memory-less control from the Theorem 12 adversarial start.
	cfg, consts := bitspread.AdversarialConfig(bitspread.Minority(ell), n, budget)
	cfg.X0 = int64((consts.A1 + consts.A3) / 2 * n)
	trace1 := bitspread.TraceForBudget(n, budget, 60)
	cfg.Probe = trace1
	res1, err := bitspread.RunParallel(cfg, bitspread.NewRNG(seed))
	if err != nil {
		log.Fatal(err)
	}
	report("memory-less Minority(3), adversarial start", res1.Converged, res1.Rounds, res1.FinalCount, trace1)

	// 2. Accumulator with a shared clock, from the all-wrong start.
	sync, err := bitspread.NewAccumulatorMinority(ell, window, true)
	if err != nil {
		log.Fatal(err)
	}
	trace2 := bitspread.TraceForBudget(n, budget, 60)
	res2, err := bitspread.RunMemory(bitspread.MemoryConfig{
		N: n, Protocol: sync, Z: z, X0: 1, MaxRounds: budget,
		Probe: trace2,
	}, bitspread.NewRNG(seed))
	if err != nil {
		log.Fatal(err)
	}
	report(fmt.Sprintf("accumulator + clock (%d bits)", sync.StateBits()),
		res2.Converged, res2.Rounds, res2.FinalCount, trace2)

	// 3. Accumulator without the clock (adversarial phases and memory).
	unsync, err := bitspread.NewAccumulatorMinority(ell, window, false)
	if err != nil {
		log.Fatal(err)
	}
	trace3 := bitspread.TraceForBudget(n, budget, 60)
	res3, err := bitspread.RunMemory(bitspread.MemoryConfig{
		N: n, Protocol: unsync, Z: z, X0: 1, AdversarialMemory: true, MaxRounds: budget,
		Probe: trace3,
	}, bitspread.NewRNG(seed))
	if err != nil {
		log.Fatal(err)
	}
	report("accumulator, no clock (adversarial phases)",
		res3.Converged, res3.Rounds, res3.FinalCount, trace3)

	fmt.Println("reading: '▁..█' sparkline of the one-fraction over the run; both memory AND synchrony are needed")
}

func report(name string, converged bool, rounds, final int64, tr *bitspread.TraceRecorder) {
	status := fmt.Sprintf("stalled at %d/%d after %d rounds", final, int64(n), rounds)
	if converged {
		status = fmt.Sprintf("converged in %d rounds", rounds)
	}
	fmt.Printf("%-48s %s\n  %s\n\n", name+":", status, tr.Sparkline())
}
