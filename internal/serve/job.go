package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"bitspread/internal/cli"
	"bitspread/internal/engine"
	"bitspread/internal/protocol"
	"bitspread/internal/sim"
)

// JobSpec is the wire form of one simulation job: a single instance
// configuration fanned over Replicas independent seeds, exactly a
// sim.Task. Everything that determines the trajectory is part of the
// job's content address; Timeout and Tenant are serving metadata and are
// not (two tenants submitting the same experiment share one result).
type JobSpec struct {
	// Name labels the job (and its journal task key). Defaults to "job".
	Name string `json:"name,omitempty"`
	// N is the population size, source included.
	N int64 `json:"n"`
	// Z is the correct opinion held by the source (0 or 1).
	Z int `json:"z"`
	// X0 is the initial one-count. Omitted, it defaults to the worst-case
	// adversarial initialization: every non-source agent starts on 1-z.
	X0 *int64 `json:"x0,omitempty"`
	// Rule names the update rule (see internal/cli.RuleNames).
	Rule string `json:"rule"`
	// Ell is the per-activation sample size for the sized rules.
	Ell int `json:"ell,omitempty"`
	// Delta parameterizes the biased/lazy rules.
	Delta float64 `json:"delta,omitempty"`
	// Threshold parameterizes the follower rule.
	Threshold int `json:"threshold,omitempty"`
	// Mode selects the engine: parallel (default), sequential, agents.
	Mode string `json:"mode,omitempty"`
	// Replicas is the number of independent seeded runs (default 1).
	Replicas int `json:"replicas,omitempty"`
	// Seed is the task seed replica seeds are derived from.
	Seed uint64 `json:"seed"`
	// MaxRounds caps each replica (0: engine default).
	MaxRounds int64 `json:"max_rounds,omitempty"`
	// Timeout is the per-job wall-clock budget as a Go duration string
	// ("30s"). Empty or above the server cap, the server cap applies.
	Timeout string `json:"timeout,omitempty"`
	// Tenant attributes the job for quota accounting; the X-Tenant header
	// takes precedence. Empty means the shared default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// normalize applies spec defaults in place.
func (sp *JobSpec) normalize() {
	if sp.Name == "" {
		sp.Name = "job"
	}
	if sp.Mode == "" {
		sp.Mode = "parallel"
	}
	if sp.Replicas == 0 {
		sp.Replicas = 1
	}
	if sp.Ell == 0 {
		sp.Ell = 1
	}
	if sp.X0 == nil {
		x0 := engine.WorstCaseInit(sp.N, sp.Z)
		sp.X0 = &x0
	}
}

// parseMode maps the wire mode name to a sim.Mode.
func parseMode(mode string) (sim.Mode, error) {
	switch strings.ToLower(mode) {
	case "parallel":
		return sim.Parallel, nil
	case "sequential":
		return sim.Sequential, nil
	case "agents", "agent-level":
		return sim.AgentLevel, nil
	default:
		return 0, fmt.Errorf("serve: unknown mode %q (want parallel, sequential, agents)", mode)
	}
}

// ruleResolver resolves a "vm:<id>" rule reference to a registered
// materialized rule; the Server supplies its protocol registry here.
type ruleResolver func(ref string) (*protocol.Rule, error)

// maxJobReplicas bounds a job's fan-out at admission: sim.RunContext
// keeps about 80 bytes per replica (seed, Result, state, error and pending
// index) before any engine runs, so 2²⁰ replicas cost it about 80 MiB.
const maxJobReplicas = 1 << 20

// buildTask compiles a normalized spec into a validated sim.Task. The
// resolver handles "vm:<id>" rule references (nil: such references are
// rejected). All errors here are client errors (HTTP 400): nothing has
// been admitted yet.
func (sp *JobSpec) buildTask(resolve ruleResolver) (sim.Task, error) {
	mode, err := parseMode(sp.Mode)
	if err != nil {
		return sim.Task{}, err
	}
	if sp.Replicas < 1 || sp.Replicas > maxJobReplicas {
		return sim.Task{}, fmt.Errorf("serve: replicas must be in [1, %d], got %d", maxJobReplicas, sp.Replicas)
	}
	if mode == sim.AgentLevel && sp.N > sim.MaxAgentN {
		return sim.Task{}, fmt.Errorf("serve: agents mode needs n/4 bytes of opinions per replica; n must be <= %d, got %d", sim.MaxAgentN, sp.N)
	}
	var rule *protocol.Rule
	if strings.HasPrefix(sp.Rule, vmRulePrefix) {
		if resolve == nil {
			return sim.Task{}, fmt.Errorf("serve: vm protocol references are not supported here")
		}
		rule, err = resolve(sp.Rule)
	} else {
		rule, err = cli.BuildRule(sp.Rule, sp.Ell, sp.Delta, sp.Threshold)
	}
	if err != nil {
		return sim.Task{}, err
	}
	t := sim.Task{
		Name: sp.Name,
		Config: engine.Config{
			N:         sp.N,
			Rule:      rule,
			Z:         sp.Z,
			X0:        *sp.X0,
			MaxRounds: sp.MaxRounds,
		},
		Mode:     mode,
		Replicas: sp.Replicas,
		Seed:     sp.Seed,
	}
	if err := t.Config.Validate(); err != nil {
		return sim.Task{}, err
	}
	return t, nil
}

// timeoutOrDefault resolves the spec's timeout against the server cap:
// empty, unparsable-is-rejected-earlier, zero, or above the cap all mean
// the cap.
func (sp *JobSpec) timeoutOrDefault(cap time.Duration) (time.Duration, error) {
	if sp.Timeout == "" {
		return cap, nil
	}
	d, err := time.ParseDuration(sp.Timeout)
	if err != nil {
		return 0, fmt.Errorf("serve: bad timeout %q: %w", sp.Timeout, err)
	}
	if d <= 0 || d > cap {
		return cap, nil
	}
	return d, nil
}

// jobID content-addresses a job: a truncated SHA-256 of the sim task key
// (name, full config, mode, seed) plus the replica count. Determinism
// makes the address a result address — any two jobs with the same ID
// produce byte-identical result payloads, which is what lets the daemon
// serve repeats from the cache and dedupe concurrent submissions.
func jobID(task sim.Task, replicas int) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s replicas=%d", sim.TaskKey(task), replicas)))
	return hex.EncodeToString(h[:16])
}

// jobState is the lifecycle of one accepted job.
type jobState int32

const (
	stateQueued jobState = iota
	stateRunning
	stateDone
	stateFailed
	stateCancelled
)

// String implements fmt.Stringer; these are the wire state names.
func (s jobState) String() string {
	switch s {
	case stateQueued:
		return "queued"
	case stateRunning:
		return "running"
	case stateDone:
		return "done"
	case stateFailed:
		return "failed"
	case stateCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("jobState(%d)", int32(s))
	}
}

// terminal reports whether the state is an end state.
func (s jobState) terminal() bool { return s >= stateDone }

// job is one accepted job's in-memory record.
type job struct {
	id      string
	spec    JobSpec
	task    sim.Task
	timeout time.Duration
	seq     uint64
	hub     *hub

	mu            sync.Mutex
	state         jobState
	err           string
	cancel        func()
	cancelPending bool
	// payload is the canonical result JSON, kept in memory only when the
	// server has no disk cache to hold it.
	payload []byte
	counts  [4]int // completed, failed, cancelled, timed-out
}

// snapshot returns the fields the status endpoint needs, consistently.
func (j *job) snapshot() (state jobState, errMsg string, counts [4]int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.err, j.counts
}

// requestCancel marks the job for cancellation and fires the in-flight
// context cancel if it is running. It reports whether the request landed
// (false when the job already ended).
func (j *job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	j.cancelPending = true
	if j.cancel != nil {
		j.cancel()
	}
	return true
}

// JobStatus is the wire form of a job's current state.
type JobStatus struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	State    string `json:"state"`
	Tenant   string `json:"tenant,omitempty"`
	Replicas int    `json:"replicas,omitempty"`
	// Error is the failure cause for failed jobs.
	Error string `json:"error,omitempty"`
	// Cached is true when the result was served from the content-addressed
	// cache without running anything.
	Cached bool `json:"cached,omitempty"`
	// Completed/Failed/Cancelled/TimedOut tally replica end states once
	// the job has finished.
	Completed int `json:"completed,omitempty"`
	Failed    int `json:"failed,omitempty"`
	Cancelled int `json:"cancelled,omitempty"`
	TimedOut  int `json:"timed_out,omitempty"`
	// ResultURL points at the canonical result payload for done jobs.
	ResultURL string `json:"result_url,omitempty"`
}

// JobResult is the canonical result payload of a completed job. It is a
// pure function of the job's content address: no timestamps, no serving
// metadata — the crash/resume acceptance test compares these bytes across
// daemon restarts.
type JobResult struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Replicas int    `json:"replicas"`
	// Converged counts replicas that reached the correct consensus.
	Converged int `json:"converged"`
	// SuccessRate is Converged/Replicas with its Wilson 95% interval.
	SuccessRate float64         `json:"success_rate"`
	SuccessLo   float64         `json:"success_lo"`
	SuccessHi   float64         `json:"success_hi"`
	Results     []engine.Result `json:"results"`
}

// canonicalResult renders the deterministic result payload for a fully
// completed outcome. json.Marshal over this fixed struct shape is
// byte-stable, so identical outcomes always yield identical payloads.
func canonicalResult(id string, out sim.Outcome) ([]byte, error) {
	rate, lo, hi := out.SuccessRate()
	res := JobResult{
		ID:          id,
		Name:        out.Task.Name,
		Replicas:    out.Task.Replicas,
		Converged:   out.ConvergedCount(),
		SuccessRate: rate,
		SuccessLo:   lo,
		SuccessHi:   hi,
		Results:     out.Results,
	}
	b, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("serve: encode result: %w", err)
	}
	return append(b, '\n'), nil
}
