package engine

// Probe receives the per-round events of a run: one-counts, activation
// counts, fault applications and per-shard load. It is the only way to
// watch a run, in every engine whose state is a binary one-count: the
// engines here, RunConflict, and the graph and memory engines
// (internal/graph, internal/memory).
//
// One run calls its probe from one goroutine, the one that called the
// engine: a sharded round reports its shards after the round's barrier,
// and a lockstep replica batch reports its replicas in turn. Only a probe
// shared by concurrent runs must be safe for concurrent use, as when the
// sim layer attaches one probe to every replica of a task
// (internal/obs.Metrics is the standard atomic implementation).
//
// Probes are observers, never participants: implementations must not
// consume randomness, block, or mutate anything the engines read. The
// engines guarantee byte-identical Results with and without a probe
// attached (the determinism regression suite checks it).
//
// Rounds are 1-based, matching Result.Rounds.
type Probe interface {
	// RoundDone fires after every parallel round (and, in the sequential
	// engine, after every n activations or at termination, so the last
	// event carries the terminal count) with the one-count and the number
	// of agents that actually drew samples.
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

// Probes returns a probe that forwards every event to each non-nil probe
// of ps, in order: nil when there is none, and the probe itself when
// there is one. It is safe for concurrent use when every probe it
// forwards to is.
func Probes(ps ...Probe) Probe {
	var fan probes
	for _, p := range ps {
		if p != nil {
			fan = append(fan, p)
		}
	}
	switch len(fan) {
	case 0:
		return nil
	case 1:
		return fan[0]
	}
	return fan
}

// probes is the fan Probes builds.
type probes []Probe

func (f probes) RoundDone(round, ones, sampled int64) {
	for _, p := range f {
		p.RoundDone(round, ones, sampled)
	}
}

func (f probes) FaultApplied(round int64) {
	for _, p := range f {
		p.FaultApplied(round)
	}
}

func (f probes) ShardRound(shard int, sampled int64) {
	for _, p := range f {
		p.ShardRound(shard, sampled)
	}
}
