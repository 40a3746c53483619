package engine

// Test-only exports. The chunked engine's chunk capacity is package state
// solely so tests can shrink it and exercise multi-chunk runs at
// testing-sized n; production code never writes it.

// SetChunkShiftForTest overrides the chunked engine's chunk capacity
// (log₂ agents per chunk, minimum 6 — a chunk must hold a whole word) and
// returns a restore func. Callers must defer the restore; the override is
// process-global, so tests using it cannot run in parallel with other
// chunked-engine tests.
func SetChunkShiftForTest(shift uint) (restore func()) {
	if shift < 6 {
		panic("SetChunkShiftForTest: shift must be at least 6")
	}
	old := chunkShift
	chunkShift = shift
	return func() { chunkShift = old }
}

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
