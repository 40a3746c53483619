package graph

import (
	"math"
	"testing"

	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/trace"
)

func TestCompleteTopology(t *testing.T) {
	c, err := NewComplete(10)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 10 || c.Degree(3) != 10 {
		t.Errorf("complete: size %d degree %d", c.Size(), c.Degree(3))
	}
	g := rng.New(1)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[c.SampleNeighbor(0, g)]++
	}
	for v, cnt := range counts {
		if cnt < 800 || cnt > 1200 {
			t.Errorf("complete sampling skewed at %d: %d/10000", v, cnt)
		}
	}
	if _, err := NewComplete(1); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestRingTopology(t *testing.T) {
	r, err := NewRing(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Degree(0) != 4 {
		t.Errorf("ring degree = %d, want 4", r.Degree(0))
	}
	// Neighbors of 0 with k=2: {1, 9, 2, 8}.
	want := map[int]bool{1: true, 2: true, 8: true, 9: true}
	g := rng.New(2)
	for i := 0; i < 200; i++ {
		if v := r.SampleNeighbor(0, g); !want[v] {
			t.Fatalf("ring neighbor %d not adjacent to 0", v)
		}
	}
	for _, bad := range [][2]int{{2, 1}, {10, 0}, {10, 5}} {
		if _, err := NewRing(bad[0], bad[1]); err == nil {
			t.Errorf("ring(%d,%d) accepted", bad[0], bad[1])
		}
	}
}

func TestTorusTopology(t *testing.T) {
	tp, err := NewTorus(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Size() != 20 {
		t.Errorf("torus size = %d", tp.Size())
	}
	for i := 0; i < 20; i++ {
		if tp.Degree(i) != 4 {
			t.Fatalf("torus degree at %d = %d", i, tp.Degree(i))
		}
	}
	if _, err := NewTorus(2, 5); err == nil {
		t.Error("thin torus accepted")
	}
}

func TestStarTopology(t *testing.T) {
	s, err := NewStar(8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Degree(0) != 7 || s.Degree(3) != 1 {
		t.Errorf("star degrees hub=%d leaf=%d", s.Degree(0), s.Degree(3))
	}
	g := rng.New(3)
	if v := s.SampleNeighbor(5, g); v != 0 {
		t.Errorf("leaf sampled %d, only the hub is adjacent", v)
	}
}

func TestErdosRenyi(t *testing.T) {
	g := rng.New(4)
	er, err := NewErdosRenyi(60, 0.2, g)
	if err != nil {
		t.Fatal(err)
	}
	if er.Size() != 60 {
		t.Errorf("size = %d", er.Size())
	}
	// Mean degree concentrates near (n-1)p = 11.8.
	sum := 0
	for i := 0; i < 60; i++ {
		sum += er.Degree(i)
	}
	mean := float64(sum) / 60
	if mean < 8 || mean > 16 {
		t.Errorf("mean degree = %v, want ≈11.8", mean)
	}
	// Tiny p on a large graph: disconnection should be detected.
	if _, err := NewErdosRenyi(200, 0.001, rng.New(5)); err == nil {
		t.Error("almost-empty G(n,p) reported connected")
	}
	if _, err := NewErdosRenyi(10, 0, g); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestRunValidation(t *testing.T) {
	topo, _ := NewComplete(8)
	voter := protocol.Voter(1)
	cases := []Config{
		{Rule: voter, Z: 1},
		{Topology: topo, Z: 1},
		{Topology: topo, Rule: voter, Z: 2},
		{Topology: topo, Rule: voter, Z: 1, InitialOnes: 8},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg, rng.New(1)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRunCompleteMatchesMainEngineRegime(t *testing.T) {
	// Voter on the complete topology converges from all-wrong, like the
	// main engine.
	topo, _ := NewComplete(64)
	res, err := Run(Config{
		Topology: topo, Rule: protocol.Voter(1), Z: 1, InitialOnes: 0,
	}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.FinalOnes != 64 {
		t.Fatalf("complete-topology voter: %+v", res)
	}
}

func TestRunOnRingAndTorus(t *testing.T) {
	ring, _ := NewRing(48, 1)
	torus, _ := NewTorus(7, 7)
	for _, topo := range []Topology{ring, torus} {
		res, err := Run(Config{
			Topology:    topo,
			Rule:        protocol.Voter(1),
			Z:           0,
			InitialOnes: topo.Size() - 1,
			MaxRounds:   400_000,
		}, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Errorf("%s: voter did not converge: %+v", topo.Name(), res)
		}
	}
}

func TestRunRecordMonotoneRange(t *testing.T) {
	topo, _ := NewStar(32)
	rec := trace.NewRecorder(32, 1)
	res, err := Run(Config{
		Topology: topo, Rule: protocol.Voter(1), Z: 1, InitialOnes: 16,
		MaxRounds: 100, Probe: rec,
	}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if int64(rec.Len()) != res.Rounds {
		t.Errorf("probe saw %d rounds, result says %d", rec.Len(), res.Rounds)
	}
	_, counts := rec.Points()
	for _, ones := range counts {
		if ones < 1 || ones > 32 {
			t.Errorf("recorded one-count %d out of range", ones)
		}
	}
}

func TestTopologySlowdown(t *testing.T) {
	// The voter mixes slower on the 1-D ring than on the complete graph:
	// compare mean convergence times at equal n.
	const n, reps = 40, 8
	complete, _ := NewComplete(n)
	ring, _ := NewRing(n, 1)
	mean := func(topo Topology, seed uint64) float64 {
		master := rng.New(seed)
		sum := 0.0
		for i := 0; i < reps; i++ {
			res, err := Run(Config{
				Topology: topo, Rule: protocol.Voter(1), Z: 1,
				InitialOnes: 0, MaxRounds: 500_000,
			}, master.Split())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("%s run did not converge", topo.Name())
			}
			sum += float64(res.Rounds)
		}
		return sum / reps
	}
	mc := mean(complete, 100)
	mr := mean(ring, 200)
	if !(mr > mc) {
		t.Errorf("ring mean τ %v should exceed complete mean τ %v", mr, mc)
	}
	if math.IsNaN(mc) || math.IsNaN(mr) {
		t.Fatal("NaN means")
	}
}
