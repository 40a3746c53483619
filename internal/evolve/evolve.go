// Package evolve searches the bytecode rule space of internal/vm for
// fast bit-dissemination protocols with a seeded genetic/annealing loop.
//
// A genome is a vm.Program in canonical table form (OpTbl + constant
// pool), so every individual is executable, content-addressable bytecode
// from birth; mutation and crossover act on the pool through the exact
// Q2.61 grid, and Proposition 3 (g^[0](0)=0, g^[1](ℓ)=1) is pinned after
// every operator so no genome can leave the protocol class.
//
// Fitness is staged to make the search cheap where the paper makes it
// predictable: a rule is first materialized and its bias polynomial F
// analysed (internal/bias). Theorem 12 says a rule whose F has definite
// sign near p = 1 converges slowly, so any genome with worst-case drift
// above Options.DriftCutoff is scored by its drift alone and never
// simulated — the analytical lower bound acts as a pre-filter, and the
// drift term gives the annealer a gradient toward the F ≡ 0 (Voter
// class) regime of Lemma 11. Only near-zero-drift genomes pay for a
// seeded engine simulation (worst case over both choices of the correct
// opinion, adversarial initialization).
//
// The whole search is a pure function of Options: seeded RNG, index-
// ordered loops, fitness ties broken by content address. Re-running with
// the same Options reproduces every generation bit for bit.
package evolve

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"bitspread/internal/bias"
	"bitspread/internal/engine"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/vm"
)

// Sentinel errors.
var (
	// ErrOptions is returned by Search for invalid Options.
	ErrOptions = errors.New("evolve: invalid options")
)

// Options configures one search. Zero fields take the documented defaults.
type Options struct {
	// Ell is the sample size of the searched rule space (required, >= 1).
	Ell int
	// Population is the number of genomes per generation (default 24).
	Population int
	// Generations is the number of generations (default 30).
	Generations int
	// Seed drives every random choice in the search.
	Seed uint64
	// SimN is the population size used for fitness simulations
	// (default 1024).
	SimN int64
	// MaxRounds caps each fitness simulation (default 32·SimN).
	MaxRounds int64
	// DriftCutoff is the bias pre-filter threshold: genomes with
	// MaxAbsDrift above it are scored analytically and never simulated.
	// The default 1e-4 is deliberately strict — by Theorem 12 a definite
	// drift near consensus dominates the √n diffusion once n·|F| exceeds
	// the per-round noise, so rules that look fine at the fitness scale
	// would stall at measurement scale (n = 2¹⁶ needs |F| ≲ 4·10⁻³).
	DriftCutoff float64
	// DriftSamples is the drift evaluation grid (default 256).
	DriftSamples int
	// Elite is how many best genomes survive unchanged (default 2).
	Elite int
	// Tournament is the selection tournament size (default 3).
	Tournament int
	// Progress, if non-nil, is called after each generation's evaluation
	// with the generation index and its statistics.
	Progress func(gen int, stat GenStat)
}

// Validate reports the first invalid option, after applying the defaults
// to a copy, without running anything: a caller can reject bad input
// before committing to a long search.
func (o Options) Validate() error { return o.defaults() }

func (o *Options) defaults() error {
	if o.Ell < 1 || o.Ell > vm.MaxEll {
		return fmt.Errorf("%w: ℓ=%d", ErrOptions, o.Ell)
	}
	if o.Population == 0 {
		o.Population = 24
	}
	if o.Generations == 0 {
		o.Generations = 30
	}
	if o.SimN == 0 {
		o.SimN = 1024
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 32 * o.SimN
	}
	//bitlint:floatexact zero is the option's unset sentinel, never a computed drift
	if o.DriftCutoff == 0 {
		o.DriftCutoff = 1e-4
	}
	if o.DriftSamples == 0 {
		o.DriftSamples = 256
	}
	if o.Elite == 0 {
		o.Elite = 2
	}
	if o.Tournament == 0 {
		o.Tournament = 3
	}
	if o.Population < 2 || o.Elite >= o.Population || o.Tournament < 1 ||
		o.Generations < 1 || o.SimN < 2 || o.MaxRounds < 1 {
		return fmt.Errorf("%w: %+v", ErrOptions, *o)
	}
	return nil
}

// Individual is one evaluated genome.
type Individual struct {
	// Program is the genome itself (canonical table bytecode).
	Program *vm.Program
	// Rule is the materialized table.
	Rule *protocol.Rule
	// Fitness is the score being minimized: for simulated genomes the
	// worst normalized round count (rounds/n over both opinions and both
	// fitness scales), for pre-filtered genomes a drift-scaled penalty
	// above every simulated score.
	Fitness float64
	// Case is the Theorem 12 classification of the bias polynomial.
	Case bias.Case
	// Drift is MaxAbsDrift over the evaluation grid.
	Drift float64
	// Simulated is true when Fitness came from an engine run rather than
	// the analytical pre-filter.
	Simulated bool
	// Rounds is the measured round count at the worst-scoring scale
	// (Simulated only).
	Rounds int64
}

// GenStat summarizes one generation.
type GenStat struct {
	Gen         int
	Best        Individual
	MeanFitness float64
	// Simulated counts genomes that reached the engine this generation;
	// the rest were pruned by the bias pre-filter.
	Simulated int
}

// Outcome is the result of a completed Search.
type Outcome struct {
	// Best is the fittest individual of the final generation.
	Best Individual
	// History holds one entry per generation, in order.
	History []GenStat
	// Evaluations counts fitness evaluations, Pruned how many of them the
	// bias pre-filter resolved without a simulation.
	Evaluations int
	Pruned      int
}

// Search runs the seeded evolutionary search and returns its outcome.
func Search(opts Options) (*Outcome, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	master := rng.New(opts.Seed)
	genomeRNG := master.Split() // mutation/crossover/selection choices
	simRNG := master.Split()    // fitness simulation streams

	out := &Outcome{}
	pop := make([]Individual, opts.Population)
	for i := range pop {
		pop[i] = Individual{Program: randomGenome(opts.Ell, genomeRNG)}
	}

	// Annealing: the mutation step size decays geometrically from sigma0
	// to sigmaFloor across the whole run, so early generations explore
	// and late ones refine regardless of how many generations were
	// requested.
	const sigma0, sigmaFloor = 0.25, 0.004
	sigmaDecay := 1.0
	if opts.Generations > 1 {
		sigmaDecay = math.Pow(sigmaFloor/sigma0, 1/float64(opts.Generations-1))
	}

	for gen := 0; gen < opts.Generations; gen++ {
		for i := range pop {
			evaluate(&pop[i], &opts, simRNG, out)
		}
		rank(pop)

		stat := GenStat{Gen: gen, Best: pop[0]}
		for i := range pop {
			stat.MeanFitness += pop[i].Fitness / float64(len(pop))
			if pop[i].Simulated {
				stat.Simulated++
			}
		}
		out.History = append(out.History, stat)
		if opts.Progress != nil {
			opts.Progress(gen, stat)
		}
		if gen == opts.Generations-1 {
			break
		}

		sigma := sigma0 * math.Pow(sigmaDecay, float64(gen))
		next := make([]Individual, 0, opts.Population)
		for i := 0; i < opts.Elite; i++ {
			next = append(next, Individual{Program: pop[i].Program})
		}
		for len(next) < opts.Population {
			a := tournament(pop, opts.Tournament, genomeRNG)
			b := tournament(pop, opts.Tournament, genomeRNG)
			child := crossover(a.Program, b.Program, genomeRNG)
			mutate(child, sigma, genomeRNG)
			next = append(next, Individual{Program: child})
		}
		pop = next
	}

	// Annealing tail: if the genetic phase left any residual drift in the
	// best genome, finish the job deterministically. The coefficients of F
	// are affine in the free table entries, so the squared-coefficient
	// residual is a smooth convex quadratic and exact coordinate descent
	// walks the best genome onto the F ≡ 0 manifold — the precision regime
	// where Gaussian mutation is hopelessly slow. This matters even for
	// genomes the pre-filter let through: by Theorem 12 a drift as small
	// as 5·10⁻⁵ — invisible at the fitness scales — still stalls the rule
	// at measurement scale, so an exactly-F≡0 neighbour is preferred over
	// any sub-cutoff drift (the Lemma 11 / Theorem 12 dichotomy, applied
	// lexicographically).
	if !pop[0].Simulated || pop[0].Drift > 0 {
		polished := Individual{Program: polish(pop[0].Program)}
		evaluate(&polished, &opts, simRNG, out)
		if betterFinal(&polished, &pop[0]) {
			pop[0] = polished
		}
	}

	out.Best = pop[0]
	return out, nil
}

// betterFinal decides whether the polished candidate a should replace
// the search winner b: simulated beats pre-filtered, exact F ≡ 0 beats
// any nonzero drift (Theorem 12 makes definite drift provably slow at
// scale regardless of measured fitness), and fitness breaks the tie.
func betterFinal(a, b *Individual) bool {
	if a.Simulated != b.Simulated {
		return a.Simulated
	}
	//bitlint:floatexact drift is exactly zero on the F≡0 manifold (bias.Polynomial snaps cancellation noise); the comparison is set membership, not tolerance
	aZero, bZero := a.Drift == 0, b.Drift == 0
	if aZero != bZero {
		return aZero
	}
	return a.Fitness < b.Fitness
}

// polish projects a table genome onto the F ≡ 0 manifold exactly. The
// coefficients of the bias polynomial are affine in the free table
// entries, F(x) = c₀ + Σᵢ xᵢ·dᵢ, so the squared-coefficient residual is
// a convex quadratic whose minimizers solve the normal equations
// Gδ = −(c₀ + G·x̂-terms); polish solves them with pivoted Gaussian
// elimination for the correction δ to the current entries x̂ (non-pivot
// components of δ stay zero, keeping the result close to the evolved
// genome), clamps to [0, 1] and quantizes. Pinned corners are never
// touched. On the manifold the float residual is round-off-sized, which
// bias.Polynomial's cancellation snap turns into an exact zero drift.
func polish(p *vm.Program) *vm.Program {
	cur := &vm.Program{Ell: p.Ell, Code: append([]byte(nil), p.Code...), Pool: append([]int64(nil), p.Pool...)}
	free := make([]int, 0, len(cur.Pool))
	for i := range cur.Pool {
		k := i % (cur.Ell + 1)
		if k != 0 && k != cur.Ell {
			free = append(free, i)
		}
	}
	m := len(free)
	if m == 0 {
		return cur
	}

	// Coefficient vector of F for the pool currently in cur, padded to a
	// fixed length so vectors from different probes line up.
	dim := cur.Ell + 2
	coeffs := func() []float64 {
		rule, err := cur.Materialize(vm.EvalLimits{})
		if err != nil {
			return nil
		}
		f := bias.Polynomial(rule)
		out := make([]float64, dim)
		for i := 0; i <= f.Degree() && i < dim; i++ {
			out[i] = f[i]
		}
		return out
	}

	saved := append([]int64(nil), cur.Pool...)
	for _, i := range free {
		cur.Pool[i] = 0
	}
	base := coeffs()
	basis := make([][]float64, m)
	for j, i := range free {
		cur.Pool[i] = vm.One
		vec := coeffs()
		cur.Pool[i] = 0
		if base == nil || vec == nil {
			copy(cur.Pool, saved)
			return cur
		}
		d := make([]float64, dim)
		for t := range d {
			d[t] = vec[t] - base[t]
		}
		basis[j] = d
	}
	copy(cur.Pool, saved)

	// Normal equations for the correction δ to the current entries x̂:
	// G δ = b with Gᵢⱼ = dᵢ·dⱼ and bᵢ = −dᵢ·F(x̂).
	fhat := coeffs()
	if fhat == nil {
		return cur
	}
	g := make([][]float64, m)
	rhs := make([]float64, m)
	for i := 0; i < m; i++ {
		g[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			for t := 0; t < dim; t++ {
				g[i][j] += basis[i][t] * basis[j][t]
			}
		}
		for t := 0; t < dim; t++ {
			rhs[i] -= basis[i][t] * fhat[t]
		}
	}

	// Pivoted Gaussian elimination; rank-deficient directions (the
	// manifold's tangent space) leave their δ components at zero.
	delta := make([]float64, m)
	pivTol := 0.0
	for i := 0; i < m; i++ {
		pivTol = math.Max(pivTol, math.Abs(g[i][i]))
	}
	pivTol *= 1e-12
	pivots := make([]int, 0, m)
	row := 0
	for col := 0; col < m && row < m; col++ {
		best := row
		for r := row + 1; r < m; r++ {
			if math.Abs(g[r][col]) > math.Abs(g[best][col]) {
				best = r
			}
		}
		if math.Abs(g[best][col]) <= pivTol {
			continue
		}
		g[row], g[best] = g[best], g[row]
		rhs[row], rhs[best] = rhs[best], rhs[row]
		for r := row + 1; r < m; r++ {
			f := g[r][col] / g[row][col]
			for c := col; c < m; c++ {
				g[r][c] -= f * g[row][c]
			}
			rhs[r] -= f * rhs[row]
		}
		pivots = append(pivots, col)
		row++
	}
	for r := len(pivots) - 1; r >= 0; r-- {
		col := pivots[r]
		sum := rhs[r]
		for c := col + 1; c < m; c++ {
			sum -= g[r][c] * delta[c]
		}
		delta[col] = sum / g[r][col]
	}

	for j, i := range free {
		x := vm.ToFloat(saved[i]) + delta[j]
		if x < 0 {
			x = 0
		} else if x > 1 {
			x = 1
		}
		v, _ := vm.FromFloat(vm.Quantize(x))
		cur.Pool[i] = v
	}
	return cur
}

// rank sorts by ascending fitness with content-address tie-breaking, so
// the ordering — and therefore selection — is deterministic even when
// two genomes score identically.
func rank(pop []Individual) {
	sort.SliceStable(pop, func(i, j int) bool {
		//bitlint:floatexact exact inequality routes only bit-identical scores to the address tie-break, which is the determinism guarantee itself
		if pop[i].Fitness != pop[j].Fitness {
			return pop[i].Fitness < pop[j].Fitness
		}
		return pop[i].Program.Address() < pop[j].Program.Address()
	})
}

// evaluate scores one genome in place, charging Outcome's counters.
func evaluate(ind *Individual, opts *Options, simRNG *rng.RNG, out *Outcome) {
	out.Evaluations++
	rule, err := ind.Program.Materialize(vm.EvalLimits{})
	if err != nil {
		// Unreachable for table genomes, but a mutation design error must
		// cull, not crash, the search.
		ind.Fitness = math.Inf(1)
		return
	}
	ind.Rule = rule
	a := bias.For(rule)
	ind.Case = a.Classify()
	ind.Drift = a.MaxAbsDrift(opts.DriftSamples)

	// penaltyBase sits above every possible simulated score (the simulated
	// scale is rounds/n, capped by the non-convergence penalty at
	// 2·MaxRounds/SimN = 64 with the defaults), so pruned genomes always
	// rank behind simulated ones; the drift term makes the penalty a
	// gradient toward the F ≡ 0 regime.
	penaltyBase := 8 * float64(opts.MaxRounds) / float64(opts.SimN)
	if ind.Drift > opts.DriftCutoff {
		out.Pruned++
		ind.Fitness = penaltyBase * (1 + ind.Drift)
		return
	}

	// Simulate at two population scales an octave-triple apart and score
	// the worst normalized round count. A single scale is blind to the
	// paper's central effect: a rule can have F ≡ 0 yet a variance profile
	// that collapses near consensus, so it looks Voter-like at small n and
	// stalls at large n. Normalizing by n makes the two scales comparable
	// (the Voter's worst-case rounds grow linearly in n).
	worstScore := 0.0
	worstRounds := int64(0)
	for _, n := range [2]int64{opts.SimN, 8 * opts.SimN} {
		maxRounds := opts.MaxRounds * (n / opts.SimN)
		for z := 0; z <= 1; z++ {
			cfg := engine.Config{
				N:         n,
				Rule:      rule,
				Z:         z,
				X0:        engine.WorstCaseInit(n, z),
				MaxRounds: maxRounds,
			}
			res, err := engine.RunParallel(cfg, simRNG.Split())
			if err != nil {
				ind.Fitness = math.Inf(1)
				return
			}
			rounds := res.Rounds
			if !res.Converged {
				rounds = 2 * maxRounds
			}
			if score := float64(rounds) / float64(n); score > worstScore {
				worstScore = score
				worstRounds = rounds
			}
		}
	}
	ind.Simulated = true
	ind.Rounds = worstRounds
	ind.Fitness = worstScore
}

// tournament returns the fittest of k uniform draws from an already
// ranked population.
func tournament(pop []Individual, k int, g *rng.RNG) *Individual {
	best := g.Intn(len(pop))
	for i := 1; i < k; i++ {
		if c := g.Intn(len(pop)); c < best {
			best = c
		}
	}
	return &pop[best]
}

// randomGenome draws a uniform quantized table genome with Proposition 3
// pinned.
func randomGenome(ell int, g *rng.RNG) *vm.Program {
	pool := make([]int64, 2*(ell+1))
	for i := range pool {
		v, _ := vm.FromFloat(vm.Quantize(g.Float64()))
		pool[i] = v
	}
	p := &vm.Program{
		Ell:  ell,
		Code: []byte{byte(vm.OpTbl), byte(vm.OpHalt)},
		Pool: pool,
	}
	pinContract(p)
	return p
}

// crossover mixes two table genomes entry-wise (uniform crossover on the
// constant pool).
func crossover(a, b *vm.Program, g *rng.RNG) *vm.Program {
	pool := make([]int64, len(a.Pool))
	for i := range pool {
		if g.Bernoulli(0.5) {
			pool[i] = a.Pool[i]
		} else {
			pool[i] = b.Pool[i]
		}
	}
	return &vm.Program{Ell: a.Ell, Code: append([]byte(nil), a.Code...), Pool: pool}
}

// mutate perturbs a genome in place: each pool entry is independently
// jittered with probability 2/len(pool) (about two entries per child) by
// a Gaussian step of scale sigma, occasionally reset to a uniform draw
// or snapped to a structural value (0, ½, 1, k/ℓ), always back onto the
// exact fixed-point grid, always re-pinning Proposition 3.
func mutate(p *vm.Program, sigma float64, g *rng.RNG) {
	rate := 2 / float64(len(p.Pool))
	for i := range p.Pool {
		if !g.Bernoulli(rate) {
			continue
		}
		cur := vm.ToFloat(p.Pool[i])
		var next float64
		switch g.Intn(4) {
		case 0: // fresh uniform draw
			next = g.Float64()
		case 1: // structural snap
			k := i % (p.Ell + 1)
			snaps := []float64{0, 0.5, 1, float64(k) / float64(p.Ell)}
			next = snaps[g.Intn(len(snaps))]
		default: // annealed Gaussian jitter
			next = cur + sigma*g.NormFloat64()
		}
		if next < 0 {
			next = 0
		} else if next > 1 {
			next = 1
		}
		v, _ := vm.FromFloat(vm.Quantize(next))
		p.Pool[i] = v
	}
	pinContract(p)
}

// pinContract forces the four unanimity corners of a table genome:
// g^[0](0) = g^[1](0) = 0 and g^[0](ℓ) = g^[1](ℓ) = 1. The first and
// last are Proposition 3 (consensus absorbing); the other two make each
// consensus *reachable* — an agent that observes a unanimous sample
// adopts it. Without them the search is deceived: there are F ≡ 0 rules
// (e.g. g^[0] = [0, ½, 0], g^[1] = [0, 1, 1] at ℓ = 2) whose drift
// vanishes yet whose conversion probability at near-consensus also
// vanishes, so they score well at the fitness scale and stall
// exponentially at measurement scale. Every classical dynamic in
// internal/protocol except the deliberately lazy ones satisfies all
// four corners; at ℓ = 2 they make the Voter the unique F ≡ 0 rule.
func pinContract(p *vm.Program) {
	p.Pool[0] = 0
	p.Pool[p.Ell] = vm.One
	p.Pool[p.Ell+1] = 0
	p.Pool[(p.Ell+1)+p.Ell] = vm.One
}

// Measure returns the empirical worst-case convergence time of a rule at
// population n: the mean over the given seeds of the parallel-round
// count, taken at its worst over both choices of the correct opinion
// with adversarial initialization. Non-converged replicas count as
// 2·maxRounds. It is the yardstick Search's outcome is compared against
// (e.g. evolved rule vs. Voter at n = 2¹⁶).
func Measure(r *protocol.Rule, n, maxRounds int64, seeds []uint64) (float64, error) {
	if len(seeds) == 0 {
		return 0, fmt.Errorf("%w: Measure needs at least one seed", ErrOptions)
	}
	if maxRounds <= 0 {
		maxRounds = 32 * n
	}
	worst := 0.0
	for z := 0; z <= 1; z++ {
		mean := 0.0
		for _, seed := range seeds {
			cfg := engine.Config{
				N:         n,
				Rule:      r,
				Z:         z,
				X0:        engine.WorstCaseInit(n, z),
				MaxRounds: maxRounds,
			}
			res, err := engine.RunParallel(cfg, rng.New(seed))
			if err != nil {
				return 0, err
			}
			rounds := res.Rounds
			if !res.Converged {
				rounds = 2 * maxRounds
			}
			mean += float64(rounds) / float64(len(seeds))
		}
		if mean > worst {
			worst = mean
		}
	}
	return worst, nil
}
