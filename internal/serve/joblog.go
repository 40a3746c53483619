package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
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

// jobLog is the append-only JSONL intent log. Like sim.Journal it
// tolerates a crash-truncated final line on load and fsyncs every append.
type jobLog struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// openJobLog opens (or creates) the log at path, replaying existing
// entries in order. A torn final line — a submit cut off by a kill before
// its fsync completed — is dropped with a diagnostic and cut off the file:
// the client never got its 202 for that job, so dropping it is the correct
// recovery, and appends must not land after the fragment.
func openJobLog(path string, logf func(string, ...any)) (*jobLog, []jobLogEntry, error) {
	var entries []jobLogEntry
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("serve: read job log: %w", err)
	}
	valid := int64(len(data)) // length of the prefix the replay accepts
	lines := splitJSONL(data)
	var off int64 // offset of the next line
	for i, line := range lines {
		start := off
		off += int64(len(line)) + 1
		if len(line) == 0 {
			continue
		}
		var e jobLogEntry
		if uerr := json.Unmarshal(line, &e); uerr != nil {
			if i < len(lines)-1 {
				return nil, nil, fmt.Errorf("serve: job log line %d corrupt: %w", i+1, uerr)
			}
			if logf != nil {
				logf("serve: job log %s: dropping truncated final line %d (%d bytes): %v", path, i+1, len(line), uerr)
			}
			valid = start
			break
		}
		entries = append(entries, e)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: open job log: %w", err)
	}
	// Cut a torn final line off the file, not just the replay: the handle
	// appends, and bytes after a torn fragment would otherwise turn it into
	// mid-file corruption that the next open rejects.
	if valid < int64(len(data)) {
		if err := f.Truncate(valid); err != nil {
			f.Close() //bitlint:errsink error-path cleanup; the truncate error is the one the caller needs
			return nil, nil, fmt.Errorf("serve: trim torn job log tail: %w", err)
		}
	}
	return &jobLog{f: f, w: bufio.NewWriter(f)}, entries, nil
}

// splitJSONL splits on '\n' without requiring a trailing newline, the
// same convention sim.Journal uses.
func splitJSONL(data []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			lines = append(lines, data[start:i])
			start = i + 1
		}
	}
	if start < len(data) {
		lines = append(lines, data[start:])
	}
	return lines
}

// append writes one entry, flushed and fsynced before returning. A nil
// log (memory-only server) records nothing.
func (l *jobLog) append(e jobLogEntry) error {
	if l == nil {
		return nil
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("serve: job log encode: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return nil
	}
	if _, err := l.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("serve: job log write: %w", err)
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("serve: job log fsync: %w", err)
	}
	return nil
}

// close flushes and closes the file; later appends become no-ops.
func (l *jobLog) close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	ferr := l.w.Flush()
	cerr := l.f.Close()
	l.f, l.w = nil, nil
	if ferr != nil {
		return ferr
	}
	return cerr
}
