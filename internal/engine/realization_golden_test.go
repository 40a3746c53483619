package engine_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync"
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
type digestProbe struct {
	mu sync.Mutex
	d  *digest
}

func (p *digestProbe) RoundDone(round, ones, sampled int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.d.put(1, round, ones, sampled)
}

func (p *digestProbe) FaultApplied(round int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.d.put(2, round)
}

func (p *digestProbe) ShardRound(shard int, sampled int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.d.put(3, int64(shard), sampled)
}

// TestEngineRealizationGolden freezes the realization of every engine
// body: for each solo engine the Result, the Record stream and the Probe
// stream are hashed into separate digests (so a body may reorder Record
// against probe events without either sink seeing it), and for both
// replica runners the Results. Cases cover every fault family, Minority(3)
// and Majority(5) from the all-wrong configuration (Majority stays
// trapped there), a run to convergence and a noisy rule under faults,
// three seeds each. Re-pin only for a deliberate change of realization.
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
		name                   string
		run                    func(engine.Config, *rng.RNG) (engine.Result, error)
		result, record, probes string
	}{
		{"count", engine.RunParallel,
			"193d59a99dd3bf96f7acf83754fa2ac5620cfbb882f79276e9cd298610a636f7",
			"6343096cfb8d5ba3057470dbb263d5fa39aca8bf0aad5070549225effce00645",
			"5a2b37ee6c3d8a0533cbd2f1928fe2218b2c63122b489419d3f61094cee9d124"},
		{"sequential", engine.RunSequential,
			"ebca0928d8d99563249dd35e58f414ca8aafbbe6d606a16f38e9958e7cfd5f8f",
			"0bd45ab5d50ffe99b54fa79e2cabb585a8a2c5b0586d001f87f1f46d011ef892",
			"80030da601fdf55bafa0fb2f633f104c2f39dc9263f811a95354f75cb3a8d633"},
		{"literal", agents(engine.AgentOptions{Unpacked: true}),
			"1669aa8fbc5330c7d34f191abd6f66f63ecf3c937301eddd1ff8b7ecacade9b1",
			"181f2a61f5a9a96c5279e4e0f9530630142bf50ffaced511050ce9fdc3cdf55b",
			"6738de934b12327cbebdb58cd199b013761646a048072744caa6f65bc2911b59"},
		{"literal-without-replacement", agents(engine.AgentOptions{WithoutReplacement: true}),
			"3f6edab82479c0396c074248668ccb05cd60dac7f32a5f6e1e522f25109cf5a7",
			"c4e80f7becd0cab3162ec2cf43468e94e2b88a9b317b3d6b6069b889c47eb62d",
			"a489c5303f7a19c90f233354bbc007c47b79de5f53cb0ee20b4a3be81f3ccbe0"},
		{"packed", agents(engine.AgentOptions{}),
			"ff53133a94e0ee814b6981cc51df7142c1a537a97cf7724c1fdb4b3c843da5f7",
			"0ca649ae664f5eb542d236152bc0b621f40ae116f28850265b1f9e89f007dce6",
			"312d1919390006e46418abc4aacca233d35f66125f7070ad90d53ebdab4c9b2b"},
		{"packed-shards3", agents(engine.AgentOptions{Shards: 3}),
			"51046346507bbabf987c39796fee137822bf4d11a313409a47b6eb56a43b81f6",
			"f2d269fdd5cf7b1f10614e09264ea53ca160793bbb4c005eeca2f7b05137dffa",
			"1bbef9dd92b84baf3111dc02362b268ff12a4d9b00c31039781007c80d919fd4"},
		// The chunk capacity changes addressing only, so the chunked
		// layout reproduces the packed one.
		{"chunked-shards3", agents(engine.AgentOptions{Chunked: true, Shards: 3}),
			"51046346507bbabf987c39796fee137822bf4d11a313409a47b6eb56a43b81f6",
			"f2d269fdd5cf7b1f10614e09264ea53ca160793bbb4c005eeca2f7b05137dffa",
			"1bbef9dd92b84baf3111dc02362b268ff12a4d9b00c31039781007c80d919fd4"},
	}

	// 128-agent chunks put a chunk boundary inside every case's population.
	defer engine.SetChunkShiftForTest(7)()

	for _, e := range solo {
		res, rec, probe := newDigest(), newDigest(), newDigest()
		for _, cfg := range cases {
			for _, seed := range seeds {
				cfg := cfg
				cfg.Record = func(round, count int64) { rec.put(round, count) }
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
			{"Record stream", rec.sum(), e.record},
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
