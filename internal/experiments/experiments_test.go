package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bitspread/internal/obs"
	"bitspread/internal/sim"
)

var quickOpts = Options{Seed: 2024, Workers: 0, Quick: true}

// runExp executes an experiment in quick mode and returns its result. It
// checkpoints into a fresh journal, so every record the experiment's units
// journal must encode as JSON (finite floats only).
func runExp(t *testing.T, id string) *Result {
	t.Helper()
	return runJournaled(t, id, quickOpts, filepath.Join(t.TempDir(), "journal.jsonl"), false)
}

// runJournaled runs experiment id with opts, checkpointing into the journal
// at path (resuming it if resume), and checks the result against the
// pinned quick digest.
func runJournaled(t *testing.T, id string, opts Options, path string, resume bool) *Result {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	j, err := sim.OpenJournal(path, resume)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	opts.Journal = j
	res, err := e.Run(opts)
	if err != nil {
		t.Fatalf("%s failed: %v", id, err)
	}
	if res.Table == nil || res.Table.String() == "" {
		t.Fatalf("%s produced no table", id)
	}
	if res.Verdict == "" {
		t.Fatalf("%s produced no verdict", id)
	}
	t.Logf("%s metrics: %v\n%s", id, res.Metrics, res.Verdict)
	sum := sha256.Sum256([]byte(res.Table.String() + "\nverdict: " + res.Verdict))
	if got, want := hex.EncodeToString(sum[:]), quickDigests[id]; got != want {
		t.Errorf("%s: quick table+verdict digest %s, want %s: a quick number moved", id, got, want)
	}
	return res
}

// quickDigests pins the SHA-256 of every experiment's quick table plus
// verdict at seed 2024, so a refactor that moves any quick number fails
// the experiment's test.
var quickDigests = map[string]string{
	"T1":  "46738d7ca88d8c41ee53d9f5d4496aa73ff87279b63dcaabf65f7a744a6ba034",
	"T2":  "b2c91edb2cea55039ef5054c4d4391065b43beb4a98ae143575a79f58b8d9863",
	"T3":  "6e2ca610c9193cd985a8e077ef7f87949ac9adf337cbedec3efec01bea763894",
	"T4":  "6894881b3e1145ea17e73b1dbece454ca325ee0ebbb963625d546b93c3e874d4",
	"T5":  "cb539ba69ecdf4444bf474e25c98df46b13885c0c469fa43830f5cd8d0d713b6",
	"T6":  "64a3de26ab7aa51425db9b685a897fdb73f6d5d6acf12e6f34c6135837fb96a4",
	"T7":  "1f35a52c5b37698c099987762a754c4fa529b58404924e7aeec417adaa8ef64c",
	"F1":  "706f59e4637bb8aa6d03677a3f359e8595f472c8f1d24d4e03a6bd1ea7a54510",
	"F2":  "8024a8eebd5749fa5acc6742c90bb34e3a956ff1ceb7cb3237d4da3100df8220",
	"F3":  "17d0217a3a70fb689b39cad1215436d7913a894b5e389ecdf9514eff3d2ab5d5",
	"F4":  "c3bec3d2e86133dbd28496bb9399ab4e4d79186d53ed5cf85a5e2d5e4506e118",
	"X1":  "2be96fd2c4f8d2db4111a9bca29ba10b8cf12ba01acd2847805afabde669dd93",
	"X2":  "351086af6ac7674d760a41352e01f111bb0590f9fc1f9a24ddd7061edb724bd4",
	"X3":  "571a5ad52cffca523bc2b8e76b034a39fc2eb49334cef2e35b5e5dcf4c4ec65e",
	"X4":  "2f813a46a19ab4f108dee900626ef4f64dac8b8a2fed58558f2851578db01d5b",
	"X5":  "28f2cc6626c704dce432eab98122d2b95a554e1c271c45e014820d0af94e4d26",
	"X6":  "d580eae8b4b3a3ffc80f6f631329a75af42cd31660671f0c0e82342b65e23b56",
	"X7":  "7afeee4bbdc2c82184b39a465b2a50c998249c938b5136ef265d899dfb1fe80b",
	"X8":  "7ec7f4a27cbca20392a345c55b5f5d2f90cb4f7d282ea9e9725b8aa0f08b01fa",
	"X9":  "669f157b54ee6a79f525c5380aa2e0887419f897bb216da20545eb8bb4ed51ac",
	"X10": "e3015fe1e89f2a9bcfe7e41a1624539a52a76116361234f773c03a58af24bd8d",
	"X11": "cb6d7f7d7ed94b4476d0f6228c3828ca01bdb4105ee0b764905addb04ef4598c",
	"X12": "6c98d4cececba9d2da8c666d79decf037204e44d29413219d2b7cd6250077c83",
	"X13": "490da0e359b14a7935ec5b5ca43b5d936c8fa6baeb37a09448f2dd3a3335b0b0",
}

func metric(t *testing.T, res *Result, key string) float64 {
	t.Helper()
	v, ok := res.Metrics[key]
	if !ok {
		t.Fatalf("metric %q missing (have %v)", key, res.Metrics)
	}
	return v
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 24 {
		t.Fatalf("registered %d experiments, want 24", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("T1"); !ok {
		t.Error("ByID(T1) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) succeeded")
	}
	ids := IDs()
	if len(ids) != len(all) {
		t.Errorf("IDs() returned %d entries", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Errorf("IDs not sorted: %v", ids)
		}
	}
}

func TestT1LowerBound(t *testing.T) {
	res := runExp(t, "T1")
	if v := metric(t, res, "trapped_rate_max"); v > 0.05 {
		t.Errorf("drift-trapped rules converged within the budget with rate %v (paper: ~0)", v)
	}
	if v := metric(t, res, "voter_tau_exponent"); v < 0.7 || v > 1.35 {
		t.Errorf("voter exponent = %v, want ≈1 (almost-linear)", v)
	}
	if v := metric(t, res, "big_sample_rate_min"); v < 0.95 {
		t.Errorf("big-sample Minority rate = %v, want ≈1", v)
	}
}

func TestT2VoterUpper(t *testing.T) {
	res := runExp(t, "T2")
	if v := metric(t, res, "min_rate"); v < 1 {
		t.Errorf("voter failed to converge in some runs (rate %v)", v)
	}
	if v := metric(t, res, "max_ratio"); v > 10 {
		t.Errorf("τ/(n ln n) = %v, want bounded (≲ a few)", v)
	}
	if v := metric(t, res, "ratio_growth"); v > 2.5 {
		t.Errorf("ratio grew %vx across the sweep; should be roughly flat", v)
	}
}

func TestT3MinorityBigSample(t *testing.T) {
	res := runExp(t, "T3")
	if v := metric(t, res, "min_rate"); v < 0.95 {
		t.Errorf("minority big-sample rate = %v", v)
	}
	if v := metric(t, res, "max_ratio"); v > 40 {
		t.Errorf("τ/ln²n = %v, want bounded", v)
	}
	if v := metric(t, res, "speedup_growth"); v < 1.5 {
		t.Errorf("speedup over voter grew only %vx; want clear growth (separation)", v)
	}
}

func TestT4Sequential(t *testing.T) {
	res := runExp(t, "T4")
	if v := metric(t, res, "min_rounds_per_n"); v < 0.05 {
		t.Errorf("sequential E[τ]/n = %v, want bounded below (Ω(n) rounds)", v)
	}
}

func TestT5Prop3(t *testing.T) {
	res := runExp(t, "T5")
	if v := metric(t, res, "max_violator_stay_prob"); v > 0.05 {
		t.Errorf("a Prop-3 violator held consensus with probability %v (paper: escapes a.s.)", v)
	}
	if v := metric(t, res, "control_escape_prob"); v != 0 {
		t.Errorf("the valid control escaped consensus with probability %v (paper: absorbing)", v)
	}
}

func TestT6JumpBound(t *testing.T) {
	res := runExp(t, "T6")
	if v := metric(t, res, "violations"); v != 0 {
		t.Errorf("%v violations of the Prop 4 jump bound (paper: exp(-2√n) ≈ 0)", v)
	}
}

func TestT7Drift(t *testing.T) {
	res := runExp(t, "T7")
	if v := metric(t, res, "max_deviation"); v > 1+1e-9 {
		t.Errorf("max exact drift deviation = %v, Prop 5 bound is 1", v)
	}
}

func TestF1Escape(t *testing.T) {
	res := runExp(t, "F1")
	if v := metric(t, res, "escape_exponent"); v < 0.7 || v > 1.35 {
		t.Errorf("exit-time exponent = %v, want ≈1", v)
	}
	if v := metric(t, res, "dominance_ok"); v != 1 {
		t.Error("Doob dominance M ≥ Y violated")
	}
	// Increments should be √n-scale: a handful of standard deviations.
	if v := metric(t, res, "max_step_per_sqrtn"); v > 8 {
		t.Errorf("martingale increment %v·√n too large for condition (iii)", v)
	}
}

func TestF2Case1(t *testing.T) {
	res := runExp(t, "F2")
	if v := metric(t, res, "max_cross_rate"); v > 0.05 {
		t.Errorf("Case 1 chain crossed a₃n with rate %v (paper: ≈0)", v)
	}
}

func TestF3Case2(t *testing.T) {
	res := runExp(t, "F3")
	if v := metric(t, res, "max_cross_rate"); v > 0.05 {
		t.Errorf("Case 2 chain crossed a₁n with rate %v (paper: ≈0)", v)
	}
}

func TestF4Dual(t *testing.T) {
	res := runExp(t, "F4")
	if v := metric(t, res, "min_coalesce_rate"); v < 0.9 {
		t.Errorf("coalescence within 2n·ln n rate = %v (paper: ≥ 1-1/n)", v)
	}
	if v := metric(t, res, "identity_violations"); v != 0 {
		t.Errorf("%v duality identity violations (it is an exact identity)", v)
	}
}

func TestX1Threshold(t *testing.T) {
	res := runExp(t, "X1")
	smallest := metric(t, res, "smallest_fast_ell")
	sqrt := metric(t, res, "sqrt_ell")
	if smallest > sqrt {
		t.Errorf("no fast ℓ found at or below √(n ln n)=%v", sqrt)
	}
	if v := metric(t, res, "rate_at_sqrt_ell"); v < 0.9 {
		t.Errorf("rate at ℓ=√(n ln n) = %v, the [15] regime must be fast", v)
	}
}

func TestX2MajorityFails(t *testing.T) {
	res := runExp(t, "X2")
	if v := metric(t, res, "majority_worst_rate"); v > 0.05 {
		t.Errorf("Majority solved a wrong-leaning instance with rate %v (paper: fails)", v)
	}
	if v := metric(t, res, "minority_worst_rate"); v < 0.95 {
		t.Errorf("Minority failed with rate %v (paper: solves)", v)
	}
}

func TestX3SampleSizeBoundary(t *testing.T) {
	res := runExp(t, "X3")
	if v := metric(t, res, "const_teleport_max"); v > 0.01 {
		t.Errorf("constant-ℓ one-round teleport rate = %v (paper: exp(-Ω(√n)))", v)
	}
	if v := metric(t, res, "log_teleport_min"); v < 0.95 {
		t.Errorf("log-ℓ teleport rate = %v (paper: →1)", v)
	}
}

func TestX12FaultRecovery(t *testing.T) {
	res := runExp(t, "X12")
	if v := metric(t, res, "voter_min_rate"); v < 0.95 {
		t.Errorf("voter recovery rate = %v, want ≈1 (self-stabilization)", v)
	}
	if v := metric(t, res, "voter_recovery_per_nlogn"); v > 5 {
		t.Errorf("voter E[recovery]/(n ln n) = %v, want a small constant (Theorem 2)", v)
	}
	if v := metric(t, res, "minority_trap_rate"); v > 0.05 {
		t.Errorf("Minority escaped the injected 3n/4 trap with rate %v (X6: exponential time)", v)
	}
}

func TestDeterminism(t *testing.T) {
	// Same seed, same table, twice — across the cheapest experiment.
	e, _ := ByID("T7")
	a, err := e.Run(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table.String() != b.Table.String() {
		t.Error("same seed produced different tables")
	}
}

func TestTablesRenderCSVFriendly(t *testing.T) {
	// Spot check that a produced table has rows and a header line.
	res := runExp(t, "T6")
	out := res.Table.String()
	if !strings.Contains(out, "rule") || strings.Count(out, "\n") < 4 {
		t.Errorf("table malformed:\n%s", out)
	}
}

func TestX4MemoryAblation(t *testing.T) {
	res := runExp(t, "X4")
	if v := metric(t, res, "memoryless_rate_max"); v > 0.05 {
		t.Errorf("memory-less control converged with rate %v (Theorem 1: trapped)", v)
	}
	if v := metric(t, res, "sync_rate_min"); v < 0.95 {
		t.Errorf("synchronized accumulator rate = %v, want ≈1 (reduction to [15])", v)
	}
	if v := metric(t, res, "unsync_rate_max"); v > 0.34 {
		t.Errorf("unsynced accumulator rate = %v; it should mostly fail to lock consensus", v)
	}
}

func TestX5MultiOpinion(t *testing.T) {
	res := runExp(t, "X5")
	if v := metric(t, res, "max_rate"); v > 0.05 {
		t.Errorf("q=3 chain converged within the budget with rate %v (footnote 2: bound transfers)", v)
	}
	if v := metric(t, res, "unseen_rounds"); v != 0 {
		t.Errorf("unseen opinion appeared in %v rounds (reduction must be exact)", v)
	}
}

func TestX6ExponentialTrap(t *testing.T) {
	res := runExp(t, "X6")
	if v := metric(t, res, "exp_rate_per_agent"); v <= 0.01 {
		t.Errorf("log E[tau] growth per agent = %v, want clearly positive (exponential trap)", v)
	}
	if v := metric(t, res, "fit_r2"); v < 0.95 {
		t.Errorf("exponential fit R2 = %v, want a clean linear log-fit", v)
	}
	if v := metric(t, res, "min_tau_over_n09"); v < 1 {
		t.Errorf("E[tau]/n^0.9 = %v, the exact time must dominate the bound", v)
	}
}

func TestX7ConflictingSources(t *testing.T) {
	res := runExp(t, "X7")
	if v := metric(t, res, "consensus_visits"); v != 0 {
		t.Errorf("consensus visited %v times with opposed sources (impossible)", v)
	}
	if v := metric(t, res, "worst_mean_error"); v > 0.08 {
		t.Errorf("zealot stationary mean off by %v", v)
	}
}

// TestX7ProbeCountsConflictRounds: Options.Probe reaches the engine runs
// an experiment makes outside the sim layer, so every round of quick X7's
// five conflict runs lands in bitspread_rounds_total.
func TestX7ProbeCountsConflictRounds(t *testing.T) {
	m := obs.NewMetrics(obs.NewRegistry())
	opts := quickOpts
	opts.Probe = m
	e, _ := ByID("X7")
	if _, err := e.Run(opts); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Rounds.Value(), int64(5*40_000); got != want {
		t.Errorf("bitspread_rounds_total = %d, want %d (5 cases of 40,000 rounds)", got, want)
	}
}

func TestX8PricePassivity(t *testing.T) {
	res := runExp(t, "X8")
	if v := metric(t, res, "active_per_log2n"); v > 5 {
		t.Errorf("active gossip took %v x log2(n) rounds, want O(log n) with a small constant", v)
	}
	if v := metric(t, res, "gap_exponent"); v < 0.6 || v > 1.4 {
		t.Errorf("active/passive gap exponent = %v, want ~1", v)
	}
}

func TestX9Topology(t *testing.T) {
	res := runExp(t, "X9")
	if v := metric(t, res, "min_rate"); v < 1 {
		t.Errorf("some topology runs failed to converge (min rate %v)", v)
	}
	ring := metric(t, res, "ring_slowdown")
	torus := metric(t, res, "torus_slowdown")
	if !(ring > torus && torus > 1) {
		t.Errorf("slowdown ordering violated: ring %v, torus %v (want ring > torus > 1)", ring, torus)
	}
	if v := metric(t, res, "expander_vs_complete"); v > 6 {
		t.Errorf("expander slowdown = %v, should stay within a small factor of complete", v)
	}
}

func TestX10Universality(t *testing.T) {
	res := runExp(t, "X10")
	if v := metric(t, res, "converged_cell_frac"); v > 0.02 {
		t.Errorf("%.1f%% of random-rule cells converged within the budget (theorem: none should)", v*100)
	}
}

func TestX11PopulationProtocols(t *testing.T) {
	res := runExp(t, "X11")
	if v := metric(t, res, "min_success_rate"); v < 1 {
		t.Errorf("a pairwise protocol failed (min rate %v)", v)
	}
	if v := metric(t, res, "epidemic_per_nlogn"); v > 6 {
		t.Errorf("epidemic used %v x n ln n interactions, want a small constant", v)
	}
	if v := metric(t, res, "voter_int_exponent"); v < 1.6 || v > 2.4 {
		t.Errorf("pairwise Voter interactions ~ n^%v, want ~2", v)
	}
}

func TestX13EvolveSearch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x13.jsonl")
	res := runJournaled(t, "X13", quickOpts, path, false)
	// A re-render from the journal runs no search and prints the same
	// table (runJournaled checks the digest).
	starts := &startCounter{}
	opts := quickOpts
	opts.Observer = starts
	runJournaled(t, "X13", opts, path, true)
	if n := starts.n.Load(); n != 0 {
		t.Errorf("re-render from the journal started %d replicas, want 0", n)
	}
	if v := metric(t, res, "max_ratio"); v > 2 {
		t.Errorf("worst evolved/Voter time ratio %v exceeds the 2x acceptance bound", v)
	}
	if v := metric(t, res, "zero_drift_rules"); v < 1 {
		t.Errorf("no evolved rule reached F≡0 exactly (%v); Voter-class rediscovery failed", v)
	}
	// At ℓ=1 every table entry is a pinned unanimity corner, so the genome
	// space collapses to the Voter and nothing is ever pruned; the pre-filter
	// only has work to do at ℓ≥2.
	if v := metric(t, res, "pruned_frac_ell1"); v != 0 {
		t.Errorf("ℓ=1: pruned fraction %v, want 0 (search space is the single pinned Voter genome)", v)
	}
	for _, ell := range []int{2, 3} {
		if v := metric(t, res, "pruned_frac_ell"+string(rune('0'+ell))); v <= 0 || v >= 1 {
			t.Errorf("ℓ=%d: bias pre-filter pruned fraction %v outside (0,1)", ell, v)
		}
	}
}

// X11 runs long pairwise simulations; a cancelled context must stop it
// promptly with the context's error rather than after the whole sweep.
func TestX11HonorsCancellation(t *testing.T) {
	e, ok := ByID("X11")
	if !ok {
		t.Fatal("experiment X11 not registered")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := quickOpts
	opts.Ctx = ctx
	start := time.Now()
	_, err := e.Run(opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("X11 with a cancelled context returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("X11 took %v to notice cancellation", d)
	}
}

// Every Monte-Carlo replica runs on sim's scheduler, which checks the
// context before each unit replica and every task round: at full size,
// an already-cancelled context must stop an experiment at once with the
// context's error instead of a table. T4, T7 and X6 are closed-form chain computations
// with no replica loop; they finish in milliseconds at full size.
func TestExperimentsHonorCancellation(t *testing.T) {
	exact := map[string]bool{"T4": true, "T7": true, "X6": true}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range IDs() {
		if exact[id] {
			continue
		}
		t.Run(id, func(t *testing.T) {
			e, _ := ByID(id)
			start := time.Now()
			_, err := e.Run(Options{Seed: 2024, Ctx: ctx})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s with a cancelled context returned %v, want context.Canceled", id, err)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("%s took %v to notice cancellation", id, d)
			}
		})
	}
}
