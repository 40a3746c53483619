package obs

// Metrics is the standard engine probe: it folds the structured
// per-round events of the engines — one-count, activation counts, fault
// applications, per-shard load — into registry metrics. It satisfies the
// engine Probe contract (bitspread/internal/engine.Probe) without
// importing it, so obs stays dependency-free.
//
// All methods are atomic-counter updates with no allocation and no
// locking, so one Metrics value is safe to share across every replica
// and shard goroutine of a sweep — exactly how sim attaches it. Sharing
// has a price, though: every round of every goroutine writes the same
// few cache lines. A writer that wants its rounds cheap keeps a private
// Metrics (NewMetrics of a registry nobody exposes) and moves its counts
// into the shared one with Fold, as each bitspreadd worker does for the
// job it runs. A nil *Metrics is a valid no-op probe (but prefer leaving
// Config.Probe nil: a nil interface skips even the method call).
type Metrics struct {
	// Rounds counts parallel rounds executed across all instrumented runs.
	Rounds *Counter
	// Activations counts agent updates actually performed (the per-round
	// slices of Result.Activations).
	Activations *Counter
	// FaultRounds counts rounds in which the fault schedule actively
	// perturbed the run (boundary event or source deviation).
	FaultRounds *Counter
	// Ones is the one-count after the most recently completed round.
	Ones *Gauge
	// RoundLoad is the distribution of per-round activation counts;
	// omission bursts and stubborn windows show up as mass in the low
	// buckets.
	RoundLoad *Histogram
	// ShardLoad is the distribution of per-shard, per-round activation
	// counts in the sharded agent engines — the shard-balance signal.
	ShardLoad *Histogram
}

// LoadBuckets are the default upper bounds of the activation-count
// histograms: powers of 16 spanning one agent to a full 2³² population.
var LoadBuckets = []float64{0, 1 << 4, 1 << 8, 1 << 12, 1 << 16, 1 << 20, 1 << 24, 1 << 28, 1 << 32}

// NewMetrics registers the standard engine metrics (bitspread_*) in reg
// and returns the probe. A nil registry yields an all-no-op probe.
func NewMetrics(reg *Registry) *Metrics {
	return &Metrics{
		Rounds:      reg.Counter("bitspread_rounds_total"),
		Activations: reg.Counter("bitspread_activations_total"),
		FaultRounds: reg.Counter("bitspread_fault_rounds_total"),
		Ones:        reg.Gauge("bitspread_one_count"),
		RoundLoad:   reg.Histogram("bitspread_round_activations", LoadBuckets),
		ShardLoad:   reg.Histogram("bitspread_shard_activations", LoadBuckets),
	}
}

// RoundDone implements the engine Probe contract: one parallel round
// finished with the given one-count and sampled-agent count.
func (m *Metrics) RoundDone(round, ones, sampled int64) {
	if m == nil {
		return
	}
	m.Rounds.Inc()
	m.Activations.Add(sampled)
	m.Ones.Set(ones)
	m.RoundLoad.Observe(sampled)
}

// FaultApplied implements the engine Probe contract: the fault schedule
// actively perturbed round round.
func (m *Metrics) FaultApplied(round int64) {
	if m == nil {
		return
	}
	m.FaultRounds.Inc()
}

// ShardRound implements the engine Probe contract: one shard of a
// sharded agent engine finished a round having sampled that many agents.
func (m *Metrics) ShardRound(shard int, sampled int64) {
	if m == nil {
		return
	}
	m.ShardLoad.Observe(sampled)
}

// Fold moves src's counts into m: each of src's counters and histogram
// buckets is swapped to zero and the value it held is added to m's. A
// count src takes concurrently with a Fold lands in exactly one Fold, so
// totals stay exact however writers and folds interleave. m's one-count
// gauge takes src's value when src finished rounds since its last fold.
// src's histograms must have m's bounds, as two NewMetrics results do.
func (m *Metrics) Fold(src *Metrics) {
	if m == nil || src == nil {
		return
	}
	if n := src.Rounds.take(); n > 0 {
		m.Rounds.Add(n)
		m.Ones.Set(src.Ones.Value())
	}
	m.Activations.Add(src.Activations.take())
	m.FaultRounds.Add(src.FaultRounds.take())
	m.RoundLoad.fold(src.RoundLoad)
	m.ShardLoad.fold(src.ShardLoad)
}
