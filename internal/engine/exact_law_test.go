package engine_test

// Exact-law suite. By Eq. 4 (Prop 5) the parallel process is the count
// chain of markov.ParallelChain, and the sequential process is the
// birth–death chain of markov.SequentialBirthDeath [14]. Every variant runs
// whole runs to a round cap, and the joint law of (Converged,
// HitWrongConsensus, Rounds, FinalCount) over its replicas is compared with
// the exact law of a run: the chain stepped once per round, or once per
// activation for the sequential engine (a round is n activations cut short
// at consensus), with a trap-visited bit beside each count and the correct
// consensus absorbing from the fault horizon on. A fault window steps a
// chain built for its rounds, and a boundary event is applied as its exact
// kernel between steps. So the driver's round counting, convergence and
// trap flags, fault-horizon crediting and round cap are checked together
// with each body's step.
//
// An outcome the law forbids fails at once. The rest are binned by (trap
// flag, Rounds) for converged runs and (trap flag, FinalCount) for the
// others and compared by a Pearson χ² test at α = 0.01, retried on an
// independent sample twice the size before a rejection is reported. The
// (rule, n, z, X₀) grid and every seed derive from lawGridSeed.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"bitspread/internal/dist"
	"bitspread/internal/engine"
	"bitspread/internal/fault"
	"bitspread/internal/markov"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/vm"
)

const (
	lawGridSeed = 240211553 // the paper's arXiv number
	lawReps     = 1000      // replicas per (cell, variant); a retry runs twice as many
	lawAlpha    = 0.01
)

// lawFamily says which cells a variant runs in and which chain is its law.
type lawFamily int

const (
	bodyFamily       lawFamily = iota // a parallel engine body, n ∈ {16, 64}
	shardedFamily                     // the sharded bitset engine, at sizes of two or more words
	sequentialFamily                  // the sequential engine: the birth–death chain
	stepFamily                        // a free one-round step driven by hand, fault-free cells only
)

// lawVariant runs one replica per seed. A new variant takes an unused
// ordinal: renumbering one would reseed it.
type lawVariant struct {
	ord    uint64
	name   string
	family lawFamily
	run    func(cfg engine.Config, seeds []uint64) ([]engine.Result, error)
}

func lawVariants() []lawVariant {
	type runFunc = func(engine.Config, []uint64) ([]engine.Result, error)
	solo := func(run func(engine.Config, *rng.RNG) (engine.Result, error)) runFunc {
		return func(cfg engine.Config, seeds []uint64) ([]engine.Result, error) {
			out := make([]engine.Result, len(seeds))
			for i, s := range seeds {
				res, err := run(cfg, rng.New(s))
				if err != nil {
					return nil, err
				}
				out[i] = res
			}
			return out, nil
		}
	}
	agents := func(opts engine.AgentOptions) runFunc {
		return solo(func(cfg engine.Config, g *rng.RNG) (engine.Result, error) {
			return engine.RunAgents(cfg, opts, g)
		})
	}
	return []lawVariant{
		{0, "count", bodyFamily, solo(engine.RunParallel)},
		{1, "count-replicas", bodyFamily, engine.RunParallelReplicas},
		{2, "literal", bodyFamily, agents(engine.AgentOptions{Unpacked: true})},
		{3, "packed", bodyFamily, agents(engine.AgentOptions{})},
		{4, "agent-replicas", bodyFamily, func(cfg engine.Config, seeds []uint64) ([]engine.Result, error) {
			return engine.RunAgentsReplicas(cfg, engine.AgentOptions{}, seeds)
		}},
		{5, "sharded-2", shardedFamily, agents(engine.AgentOptions{Shards: 2})},
		{6, "sharded-3", shardedFamily, agents(engine.AgentOptions{Shards: 3})},
		{7, "sharded-ncpu", shardedFamily, agents(engine.AgentOptions{Shards: runtime.NumCPU()})},
		{8, "sequential", sequentialFamily, solo(engine.RunSequential)},
		{9, "StepCount", stepFamily, stepLoop(func(cfg engine.Config, xs []int64, gs []*rng.RNG) {
			for i := range xs {
				xs[i] = engine.StepCount(cfg.Rule, cfg.N, cfg.Z, xs[i], gs[i])
			}
		})},
		{10, "StepCountBatch", stepFamily, stepLoop(func(cfg engine.Config, xs []int64, gs []*rng.RNG) {
			engine.StepCountBatch(protocol.NewAdoptCache(cfg.Rule, cfg.N), cfg.Z, xs, gs)
		})},
	}
}

// stepLoop runs fault-free replicas in lockstep by calling step once per
// round, as the experiments that drive StepCount by hand do, and books
// each Result the way the engines do.
func stepLoop(step func(cfg engine.Config, xs []int64, gs []*rng.RNG)) func(engine.Config, []uint64) ([]engine.Result, error) {
	return func(cfg engine.Config, seeds []uint64) ([]engine.Result, error) {
		target, trap := consensusCount(cfg.N, cfg.Z), trapCount(cfg.N, cfg.Z)
		absorbing := cfg.Rule.CheckProp3() == nil
		xs := make([]int64, len(seeds))
		gs := make([]*rng.RNG, len(seeds))
		out := make([]engine.Result, len(seeds))
		for i, s := range seeds {
			xs[i], gs[i] = cfg.X0, rng.New(s)
			out[i] = engine.Result{FinalCount: cfg.X0, Converged: absorbing && cfg.X0 == target}
		}
		for t := int64(1); t <= cfg.MaxRounds; t++ {
			step(cfg, xs, gs)
			for i, x := range xs {
				if r := &out[i]; !r.Converged {
					r.Rounds, r.FinalCount = t, x
					r.HitWrongConsensus = r.HitWrongConsensus || x == trap
					r.Converged = absorbing && x == target
				}
			}
		}
		return out, nil
	}
}

func consensusCount(n int64, z int) int64 { return int64(z) * n }

// trapCount is the all-wrong count: every non-source agent holds 1-z.
func trapCount(n int64, z int) int64 { return int64(z) + int64(1-z)*(n-1) }

// lawFault is a fault schedule of one event, or none.
type lawFault struct {
	name  string
	event fault.Event
}

func (f lawFault) schedule() *fault.Schedule {
	if f.event.Kind == 0 {
		return nil
	}
	return fault.Must(f.event)
}

var lawFaults = []lawFault{
	{name: "none"},
	{"omission", fault.OmissionFor(2, 3, 0.5)},
	{"stubborn-1", fault.StubbornFor(2, 3, 0.25, 1)},
	{"stubborn-0", fault.StubbornFor(2, 3, 0.25, 0)},
	{"source-crash", fault.SourceCrashFor(2, 3)},
	{"reset", fault.ResetAt(3, 0.5, 0)},
	{"churn", fault.ChurnAt(3, 0.5, 0.25)},
}

// lawCell is one instance of the grid and the families that run it.
type lawCell struct {
	rule     *protocol.Rule
	fault    lawFault
	n, x0    int64
	z        int
	seed     uint64
	families []lawFamily
}

// lawGrid draws the cells from lawGridSeed: every rule under every fault
// at n ∈ {16, 64} for the engine bodies, the sequential engine and (fault
// free) the free steps; every fault at n = 256, whose four words the
// sharded engine splits word by word, and two fault-free cells at
// n = 1025, whose 17 words it splits along cache lines.
func lawGrid(t *testing.T) []lawCell {
	prog, err := vm.Compile(protocol.TwoChoice())
	if err != nil {
		t.Fatal(err)
	}
	vmRule, err := prog.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	rules := []*protocol.Rule{
		protocol.Voter(1),
		protocol.Minority(3),
		protocol.TwoChoice(),
		protocol.WithNoise(protocol.Majority(3), 0.1), // never absorbs
		vmRule,
	}
	g := rng.New(lawGridSeed)
	cell := func(r *protocol.Rule, f lawFault, n int64, families ...lawFamily) lawCell {
		z := g.Intn(2)
		return lawCell{rule: r, fault: f, n: n, z: z, x0: int64(z) + int64(g.Intn(int(n))), seed: g.Uint64(), families: families}
	}
	var cells []lawCell
	for _, f := range lawFaults {
		for _, r := range rules {
			fams := []lawFamily{bodyFamily, sequentialFamily}
			if f.event.Kind == 0 {
				fams = append(fams, stepFamily)
			}
			cells = append(cells, cell(r, f, []int64{16, 64}[g.Intn(2)], fams...))
		}
		cells = append(cells, cell(rules[g.Intn(len(rules))], f, 256, shardedFamily))
	}
	for range 2 {
		cells = append(cells, cell(rules[g.Intn(len(rules))], lawFaults[0], 1025, shardedFamily))
	}
	return cells
}

func TestExactLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("exact-law suite needs thousands of replicas per cell")
	}
	t.Logf("grid seed %d", lawGridSeed)
	variants := lawVariants()
	for _, c := range lawGrid(t) {
		name := fmt.Sprintf("%s/%v/n=%d,z=%d,x0=%d", c.fault.name, c.rule, c.n, c.z, c.x0)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			o := &lawOracle{lawCell: c, sched: c.fault.schedule(), kernels: map[kernelKey]*markov.Chain{}}
			laws := map[bool]*exactLaw{}
			for _, fam := range c.families {
				seq := fam == sequentialFamily
				if laws[seq] == nil {
					laws[seq] = o.law(t, seq)
				}
				law := laws[seq]
				cfg := engine.Config{N: c.n, Rule: c.rule, Z: c.z, X0: c.x0, MaxRounds: law.cap, Faults: o.sched}
				for _, v := range variants {
					if v.family == fam {
						checkLaw(t, v, cfg, law, c.seed^v.ord<<40)
					}
				}
			}
		})
	}
}

// checkLaw runs lawReps replicas of v and fails on an outcome the law
// forbids, or when a χ² test rejects the law both on that sample and on an
// independent one twice its size.
func checkLaw(t *testing.T, v lawVariant, cfg engine.Config, law *exactLaw, seed uint64) {
	t.Helper()
	var p [2]float64
	for try := range 2 {
		reps := lawReps << try
		seeds := make([]uint64, reps)
		g := rng.New(seed + uint64(try)<<56)
		for i := range seeds {
			seeds[i] = g.Uint64()
		}
		res, err := v.run(cfg, seeds)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		obs := make([]int64, len(law.p))
		for _, r := range res {
			i, ok := law.index(r)
			if !ok || law.p[i] <= 0 {
				t.Errorf("%s (cap %d): %+v is impossible under the exact law", v.name, law.cap, r)
				return
			}
			obs[i]++
		}
		exp := make([]float64, len(law.p))
		for i, q := range law.p {
			exp[i] = q * float64(reps)
		}
		stat, dof, err := dist.ChiSquareStat(obs, exp, 5)
		if err != nil {
			return // the law sits on one cell, and every outcome landed there
		}
		if p[try] = dist.ChiSquareTail(stat, dof); p[try] >= lawAlpha {
			return
		}
	}
	t.Errorf("%s (cap %d): χ² p-values %.5f and %.5f (retry) < %v — runs do not follow the exact law",
		v.name, law.cap, p[0], p[1], lawAlpha)
}

// exactLaw is the law of one run's outcome up to round cap: p holds the
// converged runs by (trap flag, Rounds), then the others by (trap flag,
// FinalCount).
type exactLaw struct {
	n, cap, target int64
	p              []float64
}

// index returns the cell of a Result, or false for one no run to cap can
// report: an interrupted run, a converged run off the target or past the
// cap, or an unconverged run that stopped before or after the cap.
func (l *exactLaw) index(r engine.Result) (int, bool) {
	flag := 0
	if r.HitWrongConsensus {
		flag = 1
	}
	switch {
	case r.Interrupted:
	case r.Converged && r.FinalCount == l.target && r.Rounds >= 0 && r.Rounds <= l.cap:
		return flag*int(l.cap+1) + int(r.Rounds), true
	case !r.Converged && r.Rounds == l.cap && r.FinalCount >= 0 && r.FinalCount <= l.n:
		return 2*int(l.cap+1) + flag*int(l.n+1) + int(r.FinalCount), true
	}
	return 0, false
}

// lawOracle steps one cell's exact chains, building each round law once.
type lawOracle struct {
	lawCell
	sched   *fault.Schedule // nil when fault-free; its methods are nil-safe
	kernels map[kernelKey]*markov.Chain
}

// kernelKey is what one round's law depends on: the source's opinion, the
// omission probability, the agents stubborn at 1 and at 0, and the
// activation model.
type kernelKey struct {
	src        int
	q          float64
	s1, s0     int64
	sequential bool
}

// law steps the chain round by round and returns the law at the first cap
// past the fault horizon by which half the runs have converged, or at a
// last cap past which the chains and the runs cost more than they tell.
func (o *lawOracle) law(t *testing.T, sequential bool) *exactLaw {
	n, target, trap, horizon := o.n, consensusCount(o.n, o.z), trapCount(o.n, o.z), o.sched.Horizon()
	maxCap, steps := int64(16), 1
	switch {
	case sequential: // 256 activations a run
		maxCap, steps = 256/n, int(n)
	case n > 64:
		maxCap = 12
	}
	var d [2][]float64    // unconverged runs by count, without and with the trap visited
	var conv [2][]float64 // converged runs by round
	for f := range d {
		d[f], conv[f] = make([]float64, n+1), make([]float64, maxCap+1)
	}
	d[0][o.x0] = 1
	// The consensus absorbs when the fault-free chain never leaves it.
	absorbing := o.kernel(t, kernelKey{src: o.z, sequential: sequential}).Prob(int(target), int(target)) == 1
	absorb := func(round int64) {
		if !absorbing || round < horizon {
			return
		}
		for f := range d {
			conv[f][round] += d[f][target]
			d[f][target] = 0
		}
	}
	absorb(0)
	var converged float64
	for round := int64(1); ; round++ {
		s1, s0 := o.sched.Stubborn(round, n)
		k := o.kernel(t, kernelKey{o.sched.SourceOpinion(round, o.z), o.sched.OmitProb(round), s1, s0, sequential})
		for f := range d {
			d[f] = o.boundary(round, d[f])
		}
		for range steps {
			for f := range d {
				d[f] = k.Step(d[f])
			}
			d[1][trap] += d[0][trap]
			d[0][trap] = 0
			absorb(round)
		}
		converged += conv[0][round-1] + conv[1][round-1]
		if round > horizon && converged+conv[0][round]+conv[1][round] >= 0.5 || round == maxCap {
			var p []float64
			for _, part := range [][]float64{conv[0][:round+1], conv[1][:round+1], d[0], d[1]} {
				p = append(p, part...)
			}
			return &exactLaw{n: n, cap: round, target: target, p: p}
		}
	}
}

// kernel returns the chain of one round, or of one activation for the
// sequential engine: the package chains for the source alone, with an
// omission probability q folded into the rule as laziness; built here
// from the same formulas when stubborn agents are pinned too.
func (o *lawOracle) kernel(t *testing.T, k kernelKey) *markov.Chain {
	if ch := o.kernels[k]; ch != nil {
		return ch
	}
	n, r := o.n, o.rule
	if k.q > 0 {
		r = protocol.WithLaziness(r, k.q)
	}
	pin1, pin0 := int64(k.src)+k.s1, int64(1-k.src)+k.s0
	var ch *markov.Chain
	var err error
	switch pinned := k.s1+k.s0 > 0; {
	case k.sequential && !pinned:
		var bd *markov.BirthDeath
		if bd, err = markov.SequentialBirthDeath(r, n, k.src); err == nil {
			ch, err = bd.Dense()
		}
	case k.sequential:
		// One activation picks one of the n-1 non-source agents; a
		// stubborn one keeps its opinion.
		up, down := make([]float64, n+1), make([]float64, n+1)
		for x := pin1; x <= n-pin0; x++ {
			p := float64(x) / float64(n)
			up[x] = float64(n-x-pin0) / float64(n-1) * r.AdoptProb(0, p)
			down[x] = float64(x-pin1) / float64(n-1) * (1 - r.AdoptProb(1, p))
		}
		var bd *markov.BirthDeath
		if bd, err = markov.NewBirthDeath(up, down); err == nil {
			ch, err = bd.Dense()
		}
	case !pinned:
		ch, err = markov.ParallelChain(r, n, k.src)
	default:
		// X' = pin1 + Bin(m₁, P₁(x/n)) + Bin(m₀, P₀(x/n)) over the free agents.
		ch, err = markov.New(int(n)+1, func(x int) []float64 {
			row := make([]float64, n+1)
			m1, m0 := int64(x)-pin1, n-int64(x)-pin0
			if m1 < 0 || m0 < 0 {
				row[x] = 1 // infeasible: absorb
				return row
			}
			p := float64(x) / float64(n)
			b0 := binomialPMF(m0, r.AdoptProb(0, p))
			for j1, q1 := range binomialPMF(m1, r.AdoptProb(1, p)) {
				for j0, q0 := range b0 {
					row[pin1+int64(j1+j0)] += q1 * q0
				}
			}
			return row
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	o.kernels[k] = ch
	return ch
}

// boundary applies the start of round t to a count distribution: the
// source takes its round-t opinion, and a boundary event rewrites opinions
// by its exact kernel. Stubborn agents are the lowest indices of an
// exchangeable layout, and reset and churn victims are uniform among the
// free agents, so the ones among them are hypergeometric in the count.
func (o *lawOracle) boundary(t int64, d []float64) []float64 {
	n, ev := o.n, o.fault.event
	src := o.sched.SourceOpinion(t, o.z)
	shift := int64(src - o.sched.SourceOpinion(t-1, o.z))
	fires := ev.Round == t && o.sched.BoundaryAt(t)
	if shift == 0 && !fires {
		return d
	}
	s1, s0 := o.sched.Stubborn(t, n)
	out := make([]float64, n+1)
	for x, m := range d {
		x := int64(x) + shift
		switch {
		case m == 0:
		case !fires:
			out[x] += m
		default:
			// k victims, h of them holding 1, rejoin with j ones: all of
			// the non-source agents are candidates for a stubborn pin,
			// the free ones for a reset or churn.
			pool, ones := n-1, x-int64(src)
			if ev.Kind != fault.Stubborn {
				pool, ones = n-1-s1-s0, ones-s1
			}
			k := int64(math.Round(ev.Fraction * float64(pool)))
			rejoin := binomialPMF(k, ev.Bias)
			if ev.Kind != fault.Churn {
				rejoin = binomialPMF(k, float64(ev.Opinion))
			}
			for h := range k + 1 {
				w := m * hypergeometricPMF(pool, ones, k, h)
				for j, q := range rejoin {
					if w*q > 0 {
						out[x-h+int64(j)] += w * q
					}
				}
			}
		}
	}
	return out
}

// binomialPMF returns the pmf of Binomial(m, p).
func binomialPMF(m int64, p float64) []float64 {
	v := make([]float64, m+1)
	switch {
	case p <= 0:
		v[0] = 1
	case p >= 1:
		v[m] = 1
	default:
		for k := range v {
			j := int64(k)
			v[k] = math.Exp(dist.LogChoose(m, j) + float64(j)*math.Log(p) + float64(m-j)*math.Log1p(-p))
		}
	}
	return v
}

// hypergeometricPMF returns the probability that k draws without
// replacement from N slots holding K ones find h ones.
func hypergeometricPMF(N, K, k, h int64) float64 {
	return math.Exp(dist.LogChoose(K, h) + dist.LogChoose(N-K, k-h) - dist.LogChoose(N, k))
}
