package engine

// Test-only exports.

// PackedWordBoundsForTest exposes the shard partition of nWords bitset
// words for alignment tests.
func PackedWordBoundsForTest(nWords, shards int) []int {
	return packedWordBounds(nWords, shards)
}

// Trajectory is the engine tests' probe: it keeps every RoundDone event
// in arrival order and counts the other events. One run calls its probe
// from one goroutine, so it takes no lock.
type Trajectory struct {
	Rounds, Counts, Sampled []int64
	Faults, ShardRounds     int
}

func (p *Trajectory) RoundDone(round, ones, sampled int64) {
	p.Rounds = append(p.Rounds, round)
	p.Counts = append(p.Counts, ones)
	p.Sampled = append(p.Sampled, sampled)
}

func (p *Trajectory) FaultApplied(int64)    { p.Faults++ }
func (p *Trajectory) ShardRound(int, int64) { p.ShardRounds++ }
