package engine_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"bitspread/internal/engine"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// TestCountEngineGolden freezes the count engines' realization, as
// TestPackedSerialGolden does for the bitset engine: RunParallel's
// trajectories and Results, and RunParallelReplicas' Results, for Voter(1),
// Minority(3) and Minority(⌈√(n ln n)⌉) at two sizes and two seeds. The
// larger size puts binomial arguments above the sampler's log-factorial
// table. Re-pin only for a deliberate change of realization.
func TestCountEngineGolden(t *testing.T) {
	const want = "b917f08d694a6aecfdbd87b979d3d423649dacfa93681a5e18dc9a91263467a8"
	seeds := []uint64{2024, 71}
	h := sha256.New()
	put := func(vs ...int64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	for _, size := range []struct{ n, x0, rounds int64 }{{5000, 2500, 300}, {40000, 4000, 40}} {
		ell := protocol.SqrtNLogN(1).Of(size.n)
		for _, r := range []*protocol.Rule{protocol.Voter(1), protocol.Minority(3), protocol.Minority(ell)} {
			name := fmt.Sprintf("%v/n=%d", r, size.n)
			cfg := engine.Config{N: size.n, Rule: r, Z: 1, X0: size.x0, MaxRounds: size.rounds}
			solo := make([]engine.Result, len(seeds))
			for i, seed := range seeds {
				p := &engine.Trajectory{}
				traced := cfg
				traced.Probe = p
				res, err := engine.RunParallel(traced, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				solo[i] = res
				put(p.Counts...)
				put(res.Rounds, res.Activations, res.FinalCount, b2i(res.Converged), b2i(res.HitWrongConsensus))
			}
			batched, err := engine.RunParallelReplicas(cfg, seeds)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batched, solo) {
				t.Errorf("%s: RunParallelReplicas %+v differs from RunParallel %+v", name, batched, solo)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("count-engine digest = %s, want %s (the count engines' realization changed)", got, want)
	}
}
