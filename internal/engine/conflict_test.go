package engine

import (
	"errors"
	"math"
	"testing"

	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

func TestConflictValidation(t *testing.T) {
	voter := protocol.Voter(1)
	tests := []struct {
		name    string
		cfg     ConflictConfig
		wantErr error
	}{
		{"ok", ConflictConfig{N: 10, Rule: voter, Sources1: 1, Sources0: 1, X0: 5, Rounds: 1}, nil},
		{"nil rule", ConflictConfig{N: 10, Sources1: 1, X0: 5, Rounds: 1}, ErrNoRule},
		{"no sources", ConflictConfig{N: 10, Rule: voter, X0: 5, Rounds: 1}, ErrNoSources},
		{"negative sources", ConflictConfig{N: 10, Rule: voter, Sources1: -1, Sources0: 2, X0: 5, Rounds: 1}, ErrNoSources},
		{"too many sources", ConflictConfig{N: 3, Rule: voter, Sources1: 2, Sources0: 1, X0: 2, Rounds: 1}, ErrPopulation},
		{"X0 below stubborn ones", ConflictConfig{N: 10, Rule: voter, Sources1: 2, Sources0: 1, X0: 1, Rounds: 1}, ErrInitial},
		{"X0 above range", ConflictConfig{N: 10, Rule: voter, Sources1: 1, Sources0: 2, X0: 9, Rounds: 1}, ErrInitial},
		{"no rounds", ConflictConfig{N: 10, Rule: voter, Sources1: 1, Sources0: 1, X0: 5}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := RunConflict(tt.cfg, rng.New(1))
			if tt.name == "no rounds" {
				if err == nil {
					t.Error("Rounds=0 accepted")
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestStepConflictRange(t *testing.T) {
	g := rng.New(2)
	const n, s1, s0 = 100, 3, 2
	x := int64(50)
	for i := 0; i < 5000; i++ {
		x = StepConflict(protocol.Minority(3), n, s1, s0, x, g)
		if x < s1 || x > n-s0 {
			t.Fatalf("count %d escaped [%d, %d]", x, s1, int64(n-s0))
		}
	}
}

func TestConflictVoterStationaryMean(t *testing.T) {
	// The zealot voter model: the stationary mean fraction is s1/(s1+s0).
	const (
		n      = 400
		s1, s0 = 3, 1
		rounds = 60_000
	)
	res, err := RunConflict(ConflictConfig{
		N: n, Rule: protocol.Voter(1), Sources1: s1, Sources0: s0,
		X0: n / 2, Rounds: rounds,
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(s1) / float64(s1+s0) // 0.75
	if math.Abs(res.MeanFraction-want) > 0.06 {
		t.Errorf("time-average fraction = %v, want ~%v", res.MeanFraction, want)
	}
}

func TestConflictNeverReachesConsensus(t *testing.T) {
	// With stubborn agents on both sides no consensus exists at all.
	res, err := RunConflict(ConflictConfig{
		N: 64, Rule: protocol.Voter(1), Sources1: 1, Sources0: 1,
		X0: 32, Rounds: 5000,
	}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.ConsensusVisits != 0 {
		t.Errorf("visited a consensus %d times with opposed zealots", res.ConsensusVisits)
	}
}

func TestConflictSingleSourceMatchesBitDissemination(t *testing.T) {
	// With s0 = 0 and s1 = 1 the conflict chain is exactly the standard
	// z=1 process: it can and does reach the correct consensus.
	res, err := RunConflict(ConflictConfig{
		N: 64, Rule: protocol.Voter(1), Sources1: 1, Sources0: 0,
		X0: 1, Rounds: 20_000,
	}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.ConsensusVisits == 0 {
		t.Error("single-source run never visited the consensus")
	}
}

// TestConflictRecord: the probe sees every round, each count feasible and
// each sampled count the n-s1-s0 agents that run the rule.
func TestConflictRecord(t *testing.T) {
	p := &Trajectory{}
	res, err := RunConflict(ConflictConfig{
		N: 16, Rule: protocol.Voter(1), Sources1: 1, Sources0: 1,
		X0: 8, Rounds: 25, Probe: p,
	}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Counts) != 25 {
		t.Fatalf("probe saw %d rounds, want 25", len(p.Counts))
	}
	for i, c := range p.Counts {
		if p.Rounds[i] != int64(i+1) || c < 1 || c > 15 || p.Sampled[i] != 14 {
			t.Errorf("event %d = (round %d, count %d, sampled %d), want round %d, count in [1, 15], sampled 14",
				i, p.Rounds[i], c, p.Sampled[i], i+1)
		}
	}
	if c := p.Counts[24]; c != res.FinalCount {
		t.Errorf("last count %d, want FinalCount %d", c, res.FinalCount)
	}
}
