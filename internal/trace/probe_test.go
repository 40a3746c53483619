package trace

import (
	"testing"

	"bitspread/internal/engine"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// *Recorder must satisfy the engine probe contract: it is how a run's
// trajectory is recorded.
var _ engine.Probe = (*Recorder)(nil)

// TestSequentialTerminalPoint pins the sequential engine's terminal
// emission: mid-round convergence must surface the final count through
// RoundDone instead of stopping one partial round short.
func TestSequentialTerminalPoint(t *testing.T) {
	rule := protocol.Voter(1)
	rec := NewRecorder(64, 1)
	cfg := engine.Config{N: 64, Rule: rule, Z: 1, X0: 32, Probe: rec}
	res, err := engine.RunSequential(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Skip("run did not converge under the cap; nothing to pin")
	}
	_, counts := rec.Points()
	if len(counts) == 0 {
		t.Fatal("no points recorded")
	}
	if got := counts[len(counts)-1]; got != res.FinalCount {
		t.Errorf("terminal recorded count = %d, want FinalCount %d", got, res.FinalCount)
	}
}
