package serve

import (
	"encoding/json"
	"fmt"

	"bitspread/internal/durable"
)

// jobLogEntry is one line of the job intent log: either the acceptance of
// a job ("submit", with its full spec) or its terminal state ("end").
// The log is what makes acceptance crash-safe: the submit line is fsynced
// before the client sees 202, so a SIGKILL'd daemon knows on restart
// exactly which accepted jobs never reached an end state and re-runs
// them — with every finished replica served from the sim journal, so the
// redo converges on byte-identical results.
type jobLogEntry struct {
	Ev    string   `json:"ev"` // "submit" | "end"
	ID    string   `json:"id"`
	Spec  *JobSpec `json:"spec,omitempty"`  // submit lines
	State string   `json:"state,omitempty"` // end lines: done, failed, cancelled
	Error string   `json:"error,omitempty"` // end lines: failure cause
}

// openJobLogFS opens (or creates) the intent log at path through fsys,
// replaying existing entries in order; every append is fsynced. A torn
// final line — a submit cut off by a kill before its fsync completed — is
// dropped with a diagnostic: the client never got its 202 for that job,
// so dropping it is the correct recovery.
func openJobLogFS(fsys durable.FS, path string, logf func(string, ...any)) (*durable.Log, []jobLogEntry, error) {
	var entries []jobLogEntry
	log, err := durable.OpenLog(fsys, path, true, func(line []byte) error {
		var e jobLogEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		entries = append(entries, e)
		return nil
	}, logf)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: job log: %w", err)
	}
	return log, entries, nil
}
