package engine

import "bitspread/internal/protocol"

// driver is the round protocol every engine shares. By Eq. 4 (Prop 5)
// every non-source agent updates independently given X_t = x, so the
// count, bitset, literal and sequential engines run one protocol and
// differ only in how they draw the next one-count. The driver owns the
// rest: the per-Config constants (absorbing target, trap, round cap, fault
// horizon), the Halt poll, each round's fault view, the Eq. 4 memo, the
// Result bookkeeping, Probe emission and the convergence test. Lockstep
// replicas are the general case; a solo run is one replica.
//
// A body supplies only its step. The driver calls it once per round; the
// body advances each replica in d.active and closes it with d.end.
type driver struct {
	cfg       *Config
	faults    Perturber // nil when the schedule is absent or empty
	absorbing bool      // Proposition 3 holds, so the correct consensus absorbs
	target    int64     // the correct consensus n·z
	trap      int64     // the all-wrong count
	roundCap  int64
	horizon   int64 // last perturbed round; consensus counts only from here

	cache   *protocol.AdoptCache // the Eq. 4 memo, built empty
	results []Result
	active  []int // replicas still running, in index order
	live    []int // replicas the current round keeps running

	// The current round, and the fault schedule's view of it. Without
	// faults src stays z and the rest stay zero.
	t            int64
	src          int     // the source's opinion during round t
	prevSrc      int     // the source's opinion during round t-1
	boundary     bool    // a boundary event rewrites opinions at the start of t
	omit         float64 // the probability that a free agent's update is lost
	stub1, stub0 int64   // non-source agents pinned at 1 and at 0
}

// body is one engine's step.
type body interface {
	// round advances every replica in d.active by round d.t and closes
	// each with d.end.
	round(d *driver)
}

// newDriver resolves cfg's constants for a run of the given number of
// replicas, each reporting shards in Result.Shards. cfg must be valid.
func newDriver(cfg *Config, replicas, shards int) *driver {
	d := &driver{
		cfg:       cfg,
		faults:    cfg.perturber(),
		absorbing: cfg.Rule.CheckProp3() == nil,
		target:    consensusTarget(cfg.N, cfg.Z),
		trap:      WorstCaseInit(cfg.N, cfg.Z),
		roundCap:  cfg.RoundCap(),
		cache:     protocol.NewAdoptCache(cfg.Rule, cfg.N),
		results:   make([]Result, replicas),
		src:       cfg.Z,
	}
	d.horizon = faultHorizon(d.faults)
	// A run that starts at the absorbing consensus with no disturbance
	// ahead has converged at round 0.
	done := cfg.X0 == d.target && d.absorbing && d.horizon == 0
	for i := range d.results {
		d.results[i] = Result{FinalCount: cfg.X0, Converged: done, Shards: shards}
		if !done {
			d.active = append(d.active, i)
		}
	}
	return d
}

// run drives b until every replica has converged, the round cap expires or
// Halt fires, and returns the Results.
func (d *driver) run(b body) []Result {
	cfg := d.cfg
	for t := int64(1); t <= d.roundCap && len(d.active) > 0; t++ {
		if cfg.Halt != nil && cfg.Halt() {
			for _, i := range d.active {
				d.results[i].Interrupted = true
			}
			break
		}
		d.t = t
		if d.faults != nil {
			// Pure functions of the round, shared by every replica; the
			// boundary events' randomness stays with each replica's body.
			d.prevSrc = d.src
			d.src = d.faults.SourceOpinion(t, cfg.Z)
			d.boundary = d.faults.BoundaryAt(t)
			d.omit = d.faults.OmitProb(t)
			d.stub1, d.stub0 = d.faults.Stubborn(t, cfg.N)
		}
		// The round filters d.active in place: a replica is appended to
		// d.live no earlier than it is read.
		d.live = d.active[:0]
		b.round(d)
		d.active = d.live
	}
	return d.results
}

// probs returns P₀(x/n) and P₁(x/n) of Eq. 4, which depend on the
// configuration only through x, from the one AdoptCache of the run or
// batch; the literal body samples instead and never fills it. x is
// clamped to [0, n], as AdoptProb clamps p, so a hand-rolled Perturber's
// out-of-range count degrades instead of panicking. It is small enough to
// inline into every body. The count and sequential bodies, which look up
// once per replica-round or activation, try the inlined d.cache.Cached
// first and call probs only on a miss, so a hit there makes no call.
func (d *driver) probs(x int64) (p0, p1 float64) {
	return d.cache.Probs(min(max(x, 0), d.cfg.N))
}

// pinned returns how many agents hold 1 and 0 in round t without being
// able to change: the source and the stubborn agents.
func (d *driver) pinned() (ones, zeros int64) {
	return int64(d.src) + d.stub1, int64(1-d.src) + d.stub0
}

// converged reports whether one-count x ends the run at the current round:
// the correct consensus, absorbing, with the fault schedule behind it.
func (d *driver) converged(x int64) bool {
	return x == d.target && d.absorbing && d.t >= d.horizon
}

// end closes replica i's round: x is its one-count after the round and
// sampled the number of agents that drew samples. It books the Result,
// notifies the observers and retires the replica once it has converged,
// reporting whether the replica keeps running.
func (d *driver) end(i int, x, sampled int64) bool {
	r := &d.results[i]
	r.Rounds = d.t
	r.Activations += sampled
	r.FinalCount = x
	if x == d.trap {
		r.HitWrongConsensus = true
	}
	if d.cfg.Probe != nil {
		d.observe(x, sampled)
	}
	if d.converged(x) {
		r.Converged = true
		return false
	}
	d.live = append(d.live, i)
	return true
}

// observe emits one replica's round events to the probe: FaultApplied when
// the schedule actively touched the round (a boundary event fired or the
// source deviated from z), then RoundDone. It is out of line so that an
// unobserved run pays one branch per replica-round.
func (d *driver) observe(x, sampled int64) {
	cfg := d.cfg
	if d.faults != nil && (d.src != cfg.Z || d.boundary) {
		cfg.Probe.FaultApplied(d.t)
	}
	cfg.Probe.RoundDone(d.t, x, sampled)
}
