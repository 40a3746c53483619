package engine_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"bitspread/internal/engine"
	"bitspread/internal/fault"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// digest is a running SHA-256 over little-endian int64 words.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) put(vs ...int64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		d.h.Write(buf[:])
	}
}

func (d *digest) putResult(r engine.Result) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	d.put(r.Rounds, r.Activations, r.FinalCount, b2i(r.Converged), b2i(r.HitWrongConsensus),
		b2i(r.Interrupted), int64(r.Shards))
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digestProbe hashes every probe event, tagged by kind, in arrival order.
// One run calls its probe from one goroutine, so it takes no lock.
type digestProbe struct{ d *digest }

func (p *digestProbe) RoundDone(round, ones, sampled int64) { p.d.put(1, round, ones, sampled) }
func (p *digestProbe) FaultApplied(round int64)             { p.d.put(2, round) }
func (p *digestProbe) ShardRound(shard int, sampled int64)  { p.d.put(3, int64(shard), sampled) }

// TestEngineRealizationGolden freezes the realization of every engine
// body: for each solo engine the Result and the Probe stream are hashed
// into separate digests, and for both replica runners the Results. Cases
// cover every fault family, Minority(3) and Majority(5) from the
// all-wrong configuration (Majority stays trapped there), a run to
// convergence and a noisy rule under faults, three seeds each. Re-pin
// only for a deliberate change of realization.
func TestEngineRealizationGolden(t *testing.T) {
	allFamilies := func() engine.Perturber {
		return fault.Must(
			fault.ResetAt(2, 0.5, 0),
			fault.StubbornFor(3, 2, 0.25, 1),
			fault.OmissionFor(6, 2, 0.5),
			fault.SourceCrashFor(9, 2),
			fault.ChurnAt(12, 0.25, 0.5),
		)
	}
	cases := []engine.Config{
		{N: 256, Rule: protocol.Voter(3), Z: 1, X0: 96, MaxRounds: 48, Faults: allFamilies()},
		{N: 256, Rule: protocol.Minority(3), Z: 1, X0: engine.WorstCaseInit(256, 1), MaxRounds: 40},
		{N: 256, Rule: protocol.Majority(5), Z: 0, X0: engine.WorstCaseInit(256, 0), MaxRounds: 12},
		{N: 200, Rule: protocol.Voter(1), Z: 1, X0: 100},
		{N: 256, Rule: protocol.WithNoise(protocol.Minority(3), 0.1), Z: 0, X0: 128, MaxRounds: 32,
			Faults: fault.Must(fault.SourceCrashFor(3, 4), fault.OmissionFor(5, 3, 0.3), fault.ChurnAt(10, 0.5, 0.5))},
	}
	seeds := []uint64{1, 0xDEADBEEF, 1 << 40}

	agents := func(opts engine.AgentOptions) func(engine.Config, *rng.RNG) (engine.Result, error) {
		return func(cfg engine.Config, g *rng.RNG) (engine.Result, error) { return engine.RunAgents(cfg, opts, g) }
	}
	solo := []struct {
		name           string
		run            func(engine.Config, *rng.RNG) (engine.Result, error)
		result, probes string
	}{
		{"count", engine.RunParallel,
			"193d59a99dd3bf96f7acf83754fa2ac5620cfbb882f79276e9cd298610a636f7",
			"5a2b37ee6c3d8a0533cbd2f1928fe2218b2c63122b489419d3f61094cee9d124"},
		{"sequential", engine.RunSequential,
			"ebca0928d8d99563249dd35e58f414ca8aafbbe6d606a16f38e9958e7cfd5f8f",
			"80030da601fdf55bafa0fb2f633f104c2f39dc9263f811a95354f75cb3a8d633"},
		{"literal", agents(engine.AgentOptions{Unpacked: true}),
			"1669aa8fbc5330c7d34f191abd6f66f63ecf3c937301eddd1ff8b7ecacade9b1",
			"6738de934b12327cbebdb58cd199b013761646a048072744caa6f65bc2911b59"},
		{"packed", agents(engine.AgentOptions{}),
			"ff53133a94e0ee814b6981cc51df7142c1a537a97cf7724c1fdb4b3c843da5f7",
			"312d1919390006e46418abc4aacca233d35f66125f7070ad90d53ebdab4c9b2b"},
		{"packed-shards3", agents(engine.AgentOptions{Shards: 3}),
			"51046346507bbabf987c39796fee137822bf4d11a313409a47b6eb56a43b81f6",
			"1bbef9dd92b84baf3111dc02362b268ff12a4d9b00c31039781007c80d919fd4"},
	}

	for _, e := range solo {
		res, probe := newDigest(), newDigest()
		for _, cfg := range cases {
			for _, seed := range seeds {
				cfg := cfg
				cfg.Probe = &digestProbe{d: probe}
				r, err := e.run(cfg, rng.New(seed))
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				res.putResult(r)
			}
		}
		for _, got := range []struct{ what, got, want string }{
			{"Result", res.sum(), e.result},
			{"Probe stream", probe.sum(), e.probes},
		} {
			if got.got != got.want {
				t.Errorf("%s: %s digest = %s, want %s (the engine's realization changed)", e.name, got.what, got.got, got.want)
			}
		}
	}

	replicas := []struct {
		name string
		run  func(engine.Config, []uint64) ([]engine.Result, error)
		want string
	}{
		// Bit-identical to solo RunParallel runs, so the count digest.
		{"RunParallelReplicas", engine.RunParallelReplicas,
			"193d59a99dd3bf96f7acf83754fa2ac5620cfbb882f79276e9cd298610a636f7"},
		{"RunAgentsReplicas", func(cfg engine.Config, seeds []uint64) ([]engine.Result, error) {
			return engine.RunAgentsReplicas(cfg, engine.AgentOptions{Shards: 2}, seeds)
		}, "c45f2b3c92c4e2cdedba5a02bf2a69064cbff5584a594ed0a75f1990b43ad817"},
	}
	for _, e := range replicas {
		d := newDigest()
		for _, cfg := range cases {
			rs, err := e.run(cfg, seeds)
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			for _, r := range rs {
				d.putResult(r)
			}
		}
		if got := d.sum(); got != e.want {
			t.Errorf("%s: Result digest = %s, want %s (the runner's realization changed)", e.name, got, e.want)
		}
	}
}
