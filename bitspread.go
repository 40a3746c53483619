// Package bitspread is a library for studying the self-stabilizing
// bit-dissemination problem with memory-less agents, reproducing
// D'Archivio & Vacus, "Brief Announcement: On the Limits of Information
// Spread by Memory-less Agents" (PODC 2024).
//
// A population of n anonymous agents holds binary opinions; a single
// source knows the correct opinion and never deviates. In each parallel
// round every other agent draws ℓ uniform samples of current opinions and
// re-decides its own through a memory-less rule g^[b](k). The library
// provides:
//
//   - the protocol formalism (Rule) with the classical dynamics — Voter,
//     Minority, Majority, 2-Choice — and failure-injection wrappers;
//   - exact simulators for the parallel setting (O(1)/round count engine,
//     literal agent engine) and the sequential setting;
//   - the bias-polynomial analysis F_n(p) of Eq. 3 with certified root
//     isolation, the engine of the paper's Ω(n^{1-ε}) lower bound;
//   - exact Markov-chain computations (dense hitting times, closed-form
//     birth–death solutions, Doob decompositions);
//   - the coalescing-random-walk dual of the Voter (Appendix B);
//   - a Monte-Carlo experiment runner and the full reproduction harness
//     (one experiment per theorem/figure; see EXPERIMENTS.md).
//
// Quick start:
//
//	cfg := bitspread.Config{
//		N:    1 << 16,
//		Rule: bitspread.Voter(1),
//		Z:    1,
//		X0:   bitspread.WorstCaseInit(1<<16, 1),
//	}
//	res, err := bitspread.RunParallel(cfg, bitspread.NewRNG(42))
//
// The subpackages under internal/ are implementation detail; this package
// re-exports the supported surface.
package bitspread

import (
	"bitspread/internal/bias"
	"bitspread/internal/dual"
	"bitspread/internal/engine"
	"bitspread/internal/experiments"
	"bitspread/internal/fault"
	"bitspread/internal/gossip"
	"bitspread/internal/graph"
	"bitspread/internal/markov"
	"bitspread/internal/memory"
	"bitspread/internal/multi"
	"bitspread/internal/obs"
	"bitspread/internal/popproto"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/sim"
	"bitspread/internal/stats"
	"bitspread/internal/sweep"
	"bitspread/internal/trace"
)

// RNG is the deterministic, splittable generator used by every simulator.
type RNG = rng.RNG

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// Rule is a memory-less update rule g^[b] : {0..ℓ} → [0,1].
type Rule = protocol.Rule

// SampleSchedule maps population size to sample size ℓ(n).
type SampleSchedule = protocol.SampleSchedule

// Family is a per-population-size protocol family {g_n}.
type Family = protocol.Family

// Rule constructors (see internal/protocol for details).
var (
	NewRule       = protocol.New
	NewSymmetric  = protocol.NewSymmetric
	Voter         = protocol.Voter
	Minority      = protocol.Minority
	Majority      = protocol.Majority
	ThreeMajority = protocol.ThreeMajority
	TwoChoice     = protocol.TwoChoice
	AntiVoter     = protocol.AntiVoter
	BiasedVoter   = protocol.BiasedVoter
	LazyVoter     = protocol.LazyVoter
	Follower      = protocol.Follower
	RandomRule    = protocol.Random
	WithNoise     = protocol.WithNoise
	WithLaziness  = protocol.WithLaziness
	MixRules      = protocol.Mix
)

// Sample-size schedules and families.
var (
	Fixed          = protocol.Fixed
	SqrtNLogN      = protocol.SqrtNLogN
	LogN           = protocol.LogN
	PowerN         = protocol.PowerN
	NewFamily      = protocol.NewFamily
	ConstantFamily = protocol.ConstantFamily
	VoterFamily    = protocol.VoterFamily
	MinorityFamily = protocol.MinorityFamily
	MajorityFamily = protocol.MajorityFamily
)

// Config describes a bit-dissemination instance; Result reports a run.
type (
	Config = engine.Config
	Result = engine.Result
	// AgentOptions tunes the literal agent-level simulator; its Shards
	// field splits the initial layout and the per-round loop across
	// goroutines with independent split-derived streams (deterministic
	// per (seed, shards)).
	AgentOptions = engine.AgentOptions
	// AdoptCache memoizes a rule's Eq. 4 adopt probabilities per exact
	// one-count for a fixed population. Every engine run and lockstep
	// batch reads them from one; it costs nothing until used and stays
	// bounded at any population size.
	AdoptCache = protocol.AdoptCache
)

// Engines and initial-configuration helpers.
var (
	RunParallel         = engine.RunParallel
	RunParallelReplicas = engine.RunParallelReplicas
	RunSequential       = engine.RunSequential
	RunAgents           = engine.RunAgents
	RunAgentsReplicas   = engine.RunAgentsReplicas
	MaxPackedShards     = engine.MaxPackedShards
	StepCount           = engine.StepCount
	StepCountBatch      = engine.StepCountBatch
	SequentialStep      = engine.SequentialStep
	WorstCaseInit       = engine.WorstCaseInit
	BalancedInit        = engine.BalancedInit
	AdversarialConfig   = engine.AdversarialConfig
	DefaultMaxRounds    = engine.DefaultMaxRounds
	NewAdoptCache       = protocol.NewAdoptCache
)

// Fault injection: a FaultSchedule is a validated, immutable list of
// mid-run perturbations (resets, churn, stubborn minorities, sample
// omission, source crashes) assigned to Config.Faults; engines apply it
// at round boundaries, deterministically per seed, and only credit
// consensus from the schedule's horizon onward. See DESIGN.md §9.
type (
	FaultSchedule = fault.Schedule
	FaultEvent    = fault.Event
)

// Fault-schedule constructors.
var (
	NewFaultSchedule = fault.New
	MustFaults       = fault.Must
	ResetAt          = fault.ResetAt
	ChurnAt          = fault.ChurnAt
	StubbornFor      = fault.StubbornFor
	OmissionFor      = fault.OmissionFor
	SourceCrashFor   = fault.SourceCrashFor
)

// BiasAnalysis is the root-and-sign portrait of a rule's bias polynomial
// F_n (Eq. 3); BiasCase identifies the Theorem 12 proof case.
type (
	BiasAnalysis = bias.Analysis
	BiasCase     = bias.Case
)

// Bias-analysis entry points and case constants.
var (
	AnalyzeBias    = bias.For
	BiasPolynomial = bias.Polynomial
)

// Fixpoint stability classes of the mean-field map p ↦ p + F(p).
type (
	Fixpoint  = bias.Fixpoint
	Stability = bias.Stability
)

// Stability values.
const (
	Attracting = bias.Attracting
	Repelling  = bias.Repelling
	SemiStable = bias.SemiStable
)

// Theorem 12 proof cases.
const (
	CaseZero     = bias.CaseZero
	CaseNegative = bias.CaseNegative
	CasePositive = bias.CasePositive
)

// Markov-chain machinery: exact chains, birth–death closed forms, Doob
// decompositions.
type (
	Chain      = markov.Chain
	BirthDeath = markov.BirthDeath
	Doob       = markov.Doob
)

var (
	NewChain             = markov.New
	NewBirthDeath        = markov.NewBirthDeath
	ParallelChain        = markov.ParallelChain
	SequentialBirthDeath = markov.SequentialBirthDeath
	ConflictChain        = markov.ConflictChain
	DoobDecompose        = markov.Decompose
	TotalVariation       = markov.TotalVariation
	DistMean             = markov.Mean
)

// Dual-process machinery (Appendix B).
type (
	DualExecution     = dual.Execution
	CoalescenceResult = dual.CoalescenceResult
)

var (
	RunDual         = dual.Run
	CoalescenceTime = dual.CoalescenceTime
)

// Monte-Carlo runner.
type (
	Task    = sim.Task
	Outcome = sim.Outcome
	Mode    = sim.Mode
)

// Activation modes for Task.
const (
	ModeParallel   = sim.Parallel
	ModeSequential = sim.Sequential
	ModeAgentLevel = sim.AgentLevel
)

// RunTask executes a Monte-Carlo task over seeded replicas.
var RunTask = sim.Run

// Experiment harness (the reproduction of every table and figure).
type (
	Experiment        = experiments.Experiment
	ExperimentOptions = experiments.Options
	ExperimentResult  = experiments.Result
)

var (
	AllExperiments = experiments.All
	ExperimentByID = experiments.ByID
	ExperimentIDs  = experiments.IDs
)

// Topology-restricted sampling (related work [24]): dynamics on graphs.
type (
	Topology    = graph.Topology
	GraphConfig = graph.Config
	GraphResult = graph.Result
)

var (
	NewComplete   = graph.NewComplete
	NewRing       = graph.NewRing
	NewTorus      = graph.NewTorus
	NewStar       = graph.NewStar
	NewErdosRenyi = graph.NewErdosRenyi
	RunOnGraph    = graph.Run
)

// Active-communication gossip baseline (the model's forbidden contrast).
type (
	GossipConfig = gossip.Config
	GossipResult = gossip.Result
	GossipMode   = gossip.Mode
)

// Gossip exchange modes.
const (
	GossipPush     = gossip.Push
	GossipPull     = gossip.Pull
	GossipPushPull = gossip.PushPull
)

// SpreadGossip runs an active rumor-spreading round sequence.
var SpreadGossip = gossip.Spread

// Bounded-memory extension (§5 direction): finite-state agents.
type (
	MemoryProtocol = memory.Protocol
	MemoryState    = memory.State
	MemoryConfig   = memory.Config
	MemoryResult   = memory.Result
)

var (
	NewMemoryAdapter       = memory.NewAdapter
	NewAccumulatorMinority = memory.NewAccumulatorMinority
	RunMemory              = memory.Run
)

// Conflicting-sources extension (§1.3, majority bit dissemination):
// stubborn agents on both sides.
type (
	ConflictConfig = engine.ConflictConfig
	ConflictResult = engine.ConflictResult
)

var (
	RunConflict  = engine.RunConflict
	StepConflict = engine.StepConflict
)

// Trajectory recording and terminal rendering. A TraceRecorder is a
// Probe: attach it to one run's Config.Probe (or ConflictConfig,
// GraphConfig or MemoryConfig Probe) to record its trajectory.
type TraceRecorder = trace.Recorder

var (
	NewTraceRecorder = trace.NewRecorder
	TraceForBudget   = trace.ForBudget
	Sparkline        = trace.Sparkline
)

// Observability: engines accept a Probe (structured per-round events),
// the Monte-Carlo runner accepts an Observer (replica lifecycle spans),
// and the obs package provides the standard atomic implementations plus
// a Prometheus-style text registry. See DESIGN.md §12.
type (
	Probe           = engine.Probe
	Observer        = sim.Observer
	Metrics         = obs.Metrics
	MetricsRegistry = obs.Registry
	SpanWriter      = obs.SpanWriter
	RunObserver     = obs.RunObserver
)

var (
	NewMetricsRegistry   = obs.NewRegistry
	NewMetrics           = obs.NewMetrics
	NewSpanWriter        = obs.NewSpanWriter
	NewRunObserver       = obs.NewRunObserver
	WriteMetricsSnapshot = obs.WriteSnapshot
)

// Population-protocol baseline ([22] contrast): active pairwise
// interactions with bounded per-agent state.
type (
	PairwiseProtocol = popproto.Protocol
	PairwiseState    = popproto.State
	PairwiseConfig   = popproto.Config
	PairwiseResult   = popproto.Result
)

// Pairwise reference protocols.
var RunPairwise = popproto.Run

type (
	Epidemic          = popproto.Epidemic
	PairwiseVoter     = popproto.PairwiseVoter
	FourStateMajority = popproto.FourStateMajority
)

// Multi-opinion extension (footnote 2): q >= 2 opinions under the
// never-adopt-unseen constraint.
type (
	MultiRule   = multi.Rule
	MultiConfig = multi.Config
	MultiResult = multi.Result
)

var (
	MultiVoter       = multi.Voter
	MultiMinority    = multi.Minority
	MultiUndecided   = multi.Undecided
	MultiValidate    = multi.Validate
	MultiStep        = multi.Step
	RunMultiParallel = multi.RunParallel
)

// Parameter-sweep framework: families × sizes → convergence statistics.
type (
	SweepGrid = sweep.Grid
	SweepCell = sweep.Cell
	SweepInit = sweep.Init
)

// Sweep initial-configuration kinds.
const (
	SweepWorstCase   = sweep.WorstCase
	SweepBalanced    = sweep.Balanced
	SweepAdversarial = sweep.Adversarial
)

var (
	SweepTable       = sweep.Table
	SweepFitExponent = sweep.FitExponent
)

// Statistics helpers commonly needed alongside the runner.
type (
	Summary  = stats.Summary
	PowerFit = stats.PowerFit
)

var (
	Summarize = stats.Summarize
	FitPower  = stats.FitPower
)
