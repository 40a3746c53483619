// Command bitsim runs a single bit-dissemination instance and reports the
// outcome, optionally tracing or plotting the one-count trajectory.
//
// Examples:
//
//	bitsim -rule voter -ell 1 -n 65536 -z 1 -init worst
//	bitsim -rule minority -schedule sqrtnlogn -n 65536 -init worst -trace 1
//	bitsim -rule minority -ell 3 -n 4096 -init adversarial -rounds 10000 -plot
//	bitsim -rule voter -n 1024 -sources1 3 -sources0 1 -rounds 20000   (zealots)
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"bitspread/internal/cli"
	"bitspread/internal/engine"
	"bitspread/internal/graph"
	"bitspread/internal/obs"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/trace"
	"bitspread/internal/vm"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bitsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("bitsim", flag.ContinueOnError)
	var prof obs.Profile
	prof.Register(fs)
	var (
		metricsPath = fs.String("metrics", "", `write a Prometheus-style metrics snapshot at exit ("-": stdout; standard mode only)`)
		ruleName    = fs.String("rule", "voter", "update rule: "+cli.RuleNames())
		vmPath      = fs.String("vm", "", "run a bytecode rule instead of -rule: path to a .bsvm program or assembly text (see bitevolve -out)")
		ell         = fs.Int("ell", 1, "sample size ℓ (fixed schedule)")
		schedule    = fs.String("schedule", "fixed", "sample-size schedule: fixed, sqrtnlogn, logn, power")
		coeff       = fs.Float64("coeff", 1, "schedule coefficient")
		alpha       = fs.Float64("alpha", 0.5, "power-schedule exponent")
		delta       = fs.Float64("delta", 0.1, "tilt for -rule biased / laziness for -rule lazy")
		threshold   = fs.Int("threshold", 1, "threshold for -rule follower")
		n           = fs.Int64("n", 1024, "population size (including sources)")
		z           = fs.Int("z", 1, "correct opinion held by the source")
		initSpec    = fs.String("init", "worst", "initial configuration: worst, balanced, adversarial, or an explicit count")
		mode        = fs.String("mode", "parallel", "activation model: parallel, sequential, agents, packed, chunked")
		shards      = fs.Int("shards", 1, "agent-engine shards (mode=agents/packed/chunked; deterministic per seed+shards)")
		unpacked    = fs.Bool("unpacked", false, "force the serial byte-per-opinion reference agent engine (mode=agents; no -shards)")
		rounds      = fs.Int64("rounds", 0, "round cap (0: default O(n log n))")
		seed        = fs.Uint64("seed", 1, "random seed")
		every       = fs.Int64("trace", 0, "print the one-count every k rounds (0: off)")
		plot        = fs.Bool("plot", false, "print a terminal plot of the trajectory")
		noise       = fs.Float64("noise", 0, "post-decision flip probability (failure injection)")
		sources1    = fs.Int64("sources1", 0, "stubborn 1-sources (conflict mode when >0 together with -sources0)")
		sources0    = fs.Int64("sources0", 0, "stubborn 0-sources (conflict mode)")
		topology    = fs.String("topology", "", "restrict sampling to a graph: ring, ring4, torus, star, gnp (empty: the paper's complete graph)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *unpacked && *shards > 1 {
		return fmt.Errorf("-unpacked runs the serial reference engine and takes no -shards (got %d); drop -unpacked to shard the bitset engine", *shards)
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() {
		if perr := prof.Stop(); perr != nil && err == nil {
			err = perr
		}
	}()

	sched, err := cli.BuildSchedule(*schedule, *ell, *coeff, *alpha)
	if err != nil {
		return err
	}
	var rule *protocol.Rule
	if *vmPath != "" {
		var prog *vm.Program
		rule, prog, err = cli.LoadVMRule(*vmPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "vm rule %s (address %s, ell=%d)\n", prog.Name, prog.Address(), prog.Ell)
	} else {
		rule, err = cli.BuildRule(*ruleName, sched.Of(*n), *delta, *threshold)
		if err != nil {
			return err
		}
	}
	if *noise > 0 {
		rule = protocol.WithNoise(rule, *noise)
	}

	if *sources1 > 0 || *sources0 > 0 {
		return runConflict(w, rule, *n, *sources1, *sources0, *rounds, *seed, *plot)
	}
	if *topology != "" {
		return runTopology(w, *topology, rule, *n, *z, *rounds, *seed, *plot)
	}

	cfg := engine.Config{N: *n, Rule: rule, Z: *z, MaxRounds: *rounds}
	switch *initSpec {
	case "worst":
		cfg.X0 = engine.WorstCaseInit(*n, *z)
	case "balanced":
		cfg.X0 = engine.BalancedInit(*n, *z)
	case "adversarial":
		adv, consts := engine.AdversarialConfig(rule, *n, *rounds)
		cfg = adv
		fmt.Fprintf(w, "adversarial instance: z=%d, X0=%d (proof constants a1=%.3f a2=%.3f a3=%.3f)\n",
			cfg.Z, cfg.X0, consts.A1, consts.A2, consts.A3)
	default:
		if _, err := fmt.Sscan(*initSpec, &cfg.X0); err != nil {
			return fmt.Errorf("bad -init %q: %w", *initSpec, err)
		}
	}

	recorder := trace.ForBudget(*n, cfg.RoundCap(), 64)
	var printer, metrics engine.Probe
	if *every > 0 {
		printer = tracePrinter{w: w, n: *n, every: *every}
	}
	var reg *obs.Registry
	if *metricsPath != "" {
		reg = obs.NewRegistry()
		metrics = obs.NewMetrics(reg)
	}
	cfg.Probe = engine.Probes(recorder, printer, metrics)

	shardNote := ""
	switch *mode {
	case "agents", "packed", "chunked":
		if *shards > 1 {
			shardNote = fmt.Sprintf("  shards=%d", *shards)
		}
	}
	fmt.Fprintf(w, "rule=%v  n=%d  z=%d  X0=%d  mode=%s  seed=%d%s\n",
		rule, cfg.N, cfg.Z, cfg.X0, *mode, *seed, shardNote)
	if err := rule.CheckProp3(); err != nil {
		fmt.Fprintf(w, "warning: %v — the run cannot stabilize\n", err)
	}

	g := rng.New(*seed)
	var res engine.Result
	switch *mode {
	case "parallel":
		res, err = engine.RunParallel(cfg, g)
	case "sequential":
		res, err = engine.RunSequential(cfg, g)
	case "agents":
		res, err = engine.RunAgents(cfg, engine.AgentOptions{Shards: *shards, Unpacked: *unpacked}, g)
	case "packed", "chunked":
		// These modes request an explicit bitset body, so an unsatisfiable
		// shard count is an error rather than the silent clamp of -mode
		// agents: a packed shard must own at least one whole 64-bit word.
		if max := engine.MaxPackedShards(cfg.N); *shards > max {
			return fmt.Errorf("-shards %d exceeds the bitset limit for n=%d: a shard must own at least one whole word (max %d)",
				*shards, cfg.N, max)
		}
		res, err = engine.RunAgents(cfg, engine.AgentOptions{Shards: *shards, Chunked: *mode == "chunked"}, g)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		return err
	}

	if res.Converged {
		fmt.Fprintf(w, "converged in %d parallel rounds (%d activations)\n", res.Rounds, res.Activations)
	} else {
		fmt.Fprintf(w, "did not converge within %d rounds (final ones: %d)\n", res.Rounds, res.FinalCount)
	}
	if res.HitWrongConsensus {
		fmt.Fprintln(w, "the run visited the all-wrong configuration")
	}
	if *plot && recorder.Len() > 0 {
		fmt.Fprint(w, recorder.Plot(12))
	}
	return obs.WriteSnapshot(reg, *metricsPath, w)
}

// tracePrinter is the -trace probe: it prints the one-count every k
// rounds.
type tracePrinter struct {
	w        io.Writer
	n, every int64
}

func (p tracePrinter) RoundDone(round, ones, _ int64) {
	if round%p.every == 0 {
		fmt.Fprintf(p.w, "round %8d  ones %8d  (%.4f)\n", round, ones, float64(ones)/float64(p.n))
	}
}

func (tracePrinter) FaultApplied(int64)    {}
func (tracePrinter) ShardRound(int, int64) {}

// runConflict handles the stubborn-sources mode (§1.3): no consensus is
// absorbing, so the run executes a fixed horizon and reports mixing
// statistics instead of a convergence time.
func runConflict(w io.Writer, rule *protocol.Rule, n, s1, s0, rounds int64, seed uint64, plot bool) error {
	if rounds <= 0 {
		rounds = 10_000
	}
	recorder := trace.ForBudget(n, rounds, 64)
	res, err := engine.RunConflict(engine.ConflictConfig{
		N:        n,
		Rule:     rule,
		Sources1: s1,
		Sources0: s0,
		X0:       (s1 + n - s0) / 2,
		Rounds:   rounds,
		Probe:    recorder,
	}, rng.New(seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "conflict mode: rule=%v  n=%d  stubborn(1)=%d  stubborn(0)=%d  rounds=%d\n",
		rule, n, s1, s0, rounds)
	fmt.Fprintf(w, "time-average fraction of ones: %.4f", res.MeanFraction)
	if s1+s0 > 0 {
		fmt.Fprintf(w, "  (zealot-voter prediction %.4f)", float64(s1)/float64(s1+s0))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "consensus visits: %d (with opposed sources, stabilization is impossible)\n", res.ConsensusVisits)
	if plot && recorder.Len() > 0 {
		fmt.Fprint(w, recorder.Plot(12))
	}
	return nil
}

// runTopology handles graph-restricted sampling (-topology): the run
// starts from the all-wrong configuration on the chosen structure.
func runTopology(w io.Writer, spec string, rule *protocol.Rule, n int64, z int, rounds int64, seed uint64, plot bool) error {
	g := rng.New(seed)
	var (
		topo graph.Topology
		err  error
	)
	switch spec {
	case "ring":
		topo, err = graph.NewRing(int(n), 1)
	case "ring4":
		topo, err = graph.NewRing(int(n), 4)
	case "torus":
		side := int(math.Round(math.Sqrt(float64(n))))
		topo, err = graph.NewTorus(side, side)
	case "star":
		topo, err = graph.NewStar(int(n))
	case "gnp":
		p := 4 * math.Log(float64(n)) / float64(n)
		topo, err = graph.NewErdosRenyi(int(n), p, g)
	default:
		return fmt.Errorf("unknown topology %q (want ring, ring4, torus, star, gnp)", spec)
	}
	if err != nil {
		return err
	}
	size := int64(topo.Size())
	if rounds <= 0 {
		rounds = 16 * size * size // rings can genuinely need Θ(n²)
	}
	recorder := trace.ForBudget(size, rounds, 64)
	res, err := graph.Run(graph.Config{
		Topology:    topo,
		Rule:        rule,
		Z:           z,
		InitialOnes: 0,
		MaxRounds:   rounds,
		Probe:       recorder,
	}, g)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "topology mode: rule=%v  %s  z=%d  all-wrong start  seed=%d\n",
		rule, topo.Name(), z, seed)
	if res.Converged {
		fmt.Fprintf(w, "converged in %d rounds\n", res.Rounds)
	} else {
		fmt.Fprintf(w, "did not converge within %d rounds (final ones: %d)\n", res.Rounds, res.FinalOnes)
	}
	if plot && recorder.Len() > 0 {
		fmt.Fprint(w, recorder.Plot(12))
	}
	return nil
}
