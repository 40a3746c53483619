package engine_test

// Guards for the replica-batched packed runner: RunAgentsReplicas is a
// pure evaluation-sharing transform (the memoized T₀/T₁ threshold pair is
// an exact function of the one-count), so every replica must be
// bit-identical to its solo RunAgents run — across fault families, shard
// counts and rules with and without 0/1 adoption tables.

import (
	"fmt"
	"testing"

	"bitspread/internal/engine"
	"bitspread/internal/fault"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

func TestRunAgentsReplicasMatchesSolo(t *testing.T) {
	seeds := []uint64{1, 2, 3, 0xDEADBEEF, 1 << 40, 77, 78, 79}
	schedules := map[string]*fault.Schedule{
		"none":     nil,
		"reset":    fault.Must(fault.ResetAt(2, 0.5, 0)),
		"omission": fault.Must(fault.OmissionFor(2, 3, 0.5)),
	}
	rules := map[string]*protocol.Rule{
		"minority": protocol.Minority(3), // 0/1 tables
		"noisy":    protocol.WithNoise(protocol.Minority(3), 0.1),
	}
	for sname, sched := range schedules {
		for rname, rule := range rules {
			for _, shards := range []int{1, 3} {
				label := fmt.Sprintf("%s/%s/shards=%d", sname, rname, shards)
				cfg := engine.Config{N: 300, Rule: rule, Z: 1, X0: 150, MaxRounds: 40, Faults: sched}
				opts := engine.AgentOptions{Shards: shards}
				batch, err := engine.RunAgentsReplicas(cfg, opts, seeds)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(batch) != len(seeds) {
					t.Fatalf("%s: %d results for %d seeds", label, len(batch), len(seeds))
				}
				for i, seed := range seeds {
					solo, err := engine.RunAgents(cfg, opts, rng.New(seed))
					if err != nil {
						t.Fatal(err)
					}
					if batch[i] != solo {
						t.Errorf("%s seed=%d: batched %+v differs from solo %+v", label, seed, batch[i], solo)
					}
				}
			}
		}
	}
}

// Early-converging replicas retire from the batch without disturbing the
// streams of the ones still running.
func TestRunAgentsReplicasRetirement(t *testing.T) {
	// Voter runs absorb at scattered rounds, so some replicas retire long
	// before others.
	cfg := engine.Config{N: 128, Rule: protocol.Voter(1), Z: 1, X0: 64, MaxRounds: 10000}
	seeds := []uint64{5, 6, 7, 8, 9, 10}
	batch, err := engine.RunAgentsReplicas(cfg, engine.AgentOptions{}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	rounds := make(map[int64]bool)
	for i, seed := range seeds {
		solo, err := engine.RunAgents(cfg, engine.AgentOptions{}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != solo {
			t.Errorf("seed=%d: batched %+v differs from solo %+v", seed, batch[i], solo)
		}
		if !batch[i].Converged {
			t.Errorf("seed=%d: replica did not absorb: %+v", seed, batch[i])
		}
		rounds[batch[i].Rounds] = true
	}
	if len(rounds) < 2 {
		t.Skip("all replicas absorbed at the same round; retirement not exercised")
	}
}

// An Unpacked configuration, which the bitset engine does not serve,
// falls back to independent solo runs with the same results.
func TestRunAgentsReplicasFallback(t *testing.T) {
	cfg := engine.Config{N: 120, Rule: protocol.Minority(3), Z: 1, X0: 60, MaxRounds: 10}
	seeds := []uint64{11, 12, 13}
	opts := engine.AgentOptions{Unpacked: true}
	batch, err := engine.RunAgentsReplicas(cfg, opts, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		solo, err := engine.RunAgents(cfg, opts, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != solo {
			t.Errorf("seed=%d: batched %+v differs from solo %+v", seed, batch[i], solo)
		}
	}
}
