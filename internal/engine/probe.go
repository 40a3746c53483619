package engine

// Probe receives structured per-round events from the engines. It
// generalizes Config.Record's (round, count) hook: where Record is a
// single-stream trajectory tap, a Probe sees one-counts, activation
// counts, fault applications and per-shard load, and is required to be
// safe for concurrent use — one Probe may be shared by every replica of
// a sweep and every shard goroutine of a run (internal/obs.Metrics is
// the standard atomic implementation).
//
// Probes are observers, never participants: implementations must not
// consume randomness, block, or mutate anything the engines read. The
// engines guarantee byte-identical Results with and without a probe
// attached (the determinism regression suite runs with one).
//
// Rounds are 1-based, matching Result.Rounds and Config.Record.
type Probe interface {
	// RoundDone fires after every parallel round (and, in the sequential
	// engine, after every n activations or at termination) with the
	// one-count and the number of agents that actually drew samples.
	RoundDone(round, ones, sampled int64)
	// FaultApplied fires at most once per run per round, when the fault
	// schedule actively perturbed it: a boundary event rewrote opinions or
	// the source deviated from the true opinion. A lockstep replica batch
	// fires it once per replica, like the solo runs it reproduces.
	FaultApplied(round int64)
	// ShardRound fires once per shard per round in the sharded bitset
	// engine with the shard's sampled-agent count; single-stream engines
	// never call it.
	ShardRound(shard int, sampled int64)
}
