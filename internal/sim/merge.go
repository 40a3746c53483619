package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"bitspread/internal/durable"
)

// MergeSource is one shard journal handed to MergeJournals: the raw JSONL
// bytes plus a name for diagnostics.
type MergeSource struct {
	Name string
	Data []byte
}

// MergeStats summarizes one merge.
type MergeStats struct {
	// Sources is the number of shard inputs (empty ones included).
	Sources int
	// Entries is the number of distinct (task, replica) checkpoints written.
	Entries int
	// Tasks is the number of distinct task keys.
	Tasks int
	// Deduped counts duplicate (task, replica) lines whose result bytes
	// were identical — overlapping partitions, or a re-leased shard
	// completed by both holders.
	Deduped int
	// Torn counts shards whose final line was truncated mid-write (the
	// signature of a killed worker) and dropped.
	Torn int
}

// String renders the stats as the one-line summary the CLIs print.
func (s MergeStats) String() string {
	return fmt.Sprintf("%d entries over %d tasks from %d shards (%d duplicates deduped, %d torn lines dropped)",
		s.Entries, s.Tasks, s.Sources, s.Deduped, s.Torn)
}

// ParsedJournal is one merge source, parsed and validated once: its
// lines in file order, less a torn final line. A fabric coordinator keeps
// one per uploaded shard, so its final merge writes without parsing the
// shards again.
type ParsedJournal struct {
	name    string
	entries []journalEntry
	torn    bool
}

// ParseJournal parses every line of src. A torn final line is dropped
// (and counted by the merge) by the same rule (durable.Scan) the resume
// loader uses; a malformed line elsewhere, or one without its task or
// result, is an error. Conflicting duplicates are the merge's to find.
func ParseJournal(src MergeSource) (*ParsedJournal, error) {
	p := &ParsedJournal{name: src.Name}
	_, err := durable.Scan(src.Data, func(line []byte) error {
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		if len(e.Result) == 0 || e.Task == "" {
			return errors.New("missing task or result field")
		}
		p.entries = append(p.entries, e)
		return nil
	})
	switch {
	case errors.Is(err, durable.ErrTorn):
		p.torn = true
	case err != nil:
		return nil, fmt.Errorf("sim: merge: shard %s: %v", src.Name, err)
	}
	return p, nil
}

// taskOrder is a task's place in the canonical sequence: its global
// ordinal, the shard-recorded seq when the shards carry one (partition
// mode), else its first-appearance index within its first source (plain
// journals). A stable sort keeps ties, between plain journals that
// numbered tasks independently, in discovery order.
type taskOrder struct {
	key string
	ord int
}

// slot is one distinct (task, replica) result and the source it came
// from.
type slot struct {
	result json.RawMessage
	src    string
}

// merge indexes parsed sources: every distinct (task, replica) result,
// and the tasks in discovery order.
type merge struct {
	stats   MergeStats
	entries map[string]map[int]slot
	order   []taskOrder
}

// index adds srcs to a new merge, stopping at the first conflicting
// duplicate.
func index(srcs []*ParsedJournal) (*merge, error) {
	m := &merge{stats: MergeStats{Sources: len(srcs)}, entries: map[string]map[int]slot{}}
	for _, p := range srcs {
		if err := m.add(p); err != nil {
			return m, err
		}
	}
	return m, nil
}

// add indexes p's entries, deduplicating identical duplicates and
// failing on a conflicting one.
func (m *merge) add(p *ParsedJournal) error {
	if p.torn {
		m.stats.Torn++
	}
	localSeen := map[string]bool{}
	for _, e := range p.entries {
		// A task's ordinal is only read where the task first appears.
		ord := len(localSeen)
		if e.Seq != nil {
			ord = *e.Seq
		}
		localSeen[e.Task] = true
		rs := m.entries[e.Task]
		if rs == nil {
			rs = map[int]slot{}
			m.entries[e.Task] = rs
			m.order = append(m.order, taskOrder{key: e.Task, ord: ord})
		}
		if prev, ok := rs[e.Replica]; ok {
			if !bytes.Equal(prev.result, e.Result) {
				return fmt.Errorf(
					"sim: merge: task %s replica %d has conflicting results in %s and %s — shards of one sweep are deterministic, so this is corruption or a mixed-seed merge",
					e.Task, e.Replica, prev.src, p.name)
			}
			m.stats.Deduped++
			continue
		}
		rs[e.Replica] = slot{result: e.Result, src: p.name}
	}
	return nil
}

// write emits the index in canonical order, one task's lines per Write.
func (m *merge) write(w io.Writer) (MergeStats, error) {
	sort.SliceStable(m.order, func(a, b int) bool { return m.order[a].ord < m.order[b].ord })
	var buf []byte
	for _, t := range m.order {
		rs := m.entries[t.key]
		replicas := make([]int, 0, len(rs))
		//bitlint:maporder keys are sorted immediately below; emission order never follows map order
		for r := range rs {
			replicas = append(replicas, r)
		}
		sort.Ints(replicas)
		task, err := json.Marshal(t.key)
		if err != nil {
			return m.stats, fmt.Errorf("sim: merge encode: %w", err)
		}
		buf = buf[:0]
		for _, r := range replicas {
			if buf, err = appendMergeLine(buf, task, r, rs[r].result); err != nil {
				return m.stats, fmt.Errorf("sim: merge encode: %w", err)
			}
			m.stats.Entries++
		}
		if _, err := w.Write(buf); err != nil {
			return m.stats, fmt.Errorf("sim: merge write: %w", err)
		}
		m.stats.Tasks++
	}
	return m.stats, nil
}

// appendMergeLine appends one merged line to dst: the bytes of
// json.Marshal(journalEntry{Task, Replica, Result}) and a newline, given
// the task key already encoded as a JSON string. A result that is
// compact and needs no HTML escaping is copied as it is; any other gets
// the normalisation json.Marshal applies to a RawMessage.
func appendMergeLine(dst, task []byte, replica int, result json.RawMessage) ([]byte, error) {
	dst = append(dst, `{"task":`...)
	dst = append(dst, task...)
	dst = append(dst, `,"replica":`...)
	dst = strconv.AppendInt(dst, int64(replica), 10)
	dst = append(dst, `,"result":`...)
	if canonicalJSON(result) {
		dst = append(dst, result...)
	} else {
		norm, err := json.Marshal(result)
		if err != nil {
			return dst, err
		}
		dst = append(dst, norm...)
	}
	return append(dst, '}', '\n'), nil
}

// canonicalJSON reports whether json.Marshal leaves the valid JSON value
// raw as it is: raw holds no byte that compacting drops (whitespace) or
// that HTML escaping rewrites (<, >, & and the lead byte of U+2028 and
// U+2029).
func canonicalJSON(raw []byte) bool {
	for _, c := range raw {
		switch c {
		case ' ', '\t', '\n', '\r', '<', '>', '&', 0xE2:
			return false
		}
	}
	return len(raw) > 0
}

// CheckParsed reports the first conflicting duplicate among srcs, as
// MergeParsed would, without encoding a line.
func CheckParsed(srcs ...*ParsedJournal) error {
	_, err := index(srcs)
	return err
}

// MergeParsed writes the canonical merge of parsed sources to w (see
// MergeJournals).
func MergeParsed(w io.Writer, srcs ...*ParsedJournal) (MergeStats, error) {
	m, err := index(srcs)
	if err != nil {
		return m.stats, err
	}
	return m.write(w)
}

// MergeJournals merges shard journals into one canonical checkpoint
// stream, proven byte-identical to the journal a single process with one
// sim worker writes for the same sweep:
//
//   - lines are ordered by (task ordinal, replica index) — the order the
//     single-process run emits them in;
//   - duplicate (task, replica) lines with identical result bytes are
//     deduplicated (overlapping partitions and a re-leased shard that
//     both holders completed are legal), while differing bytes are a
//     hard error — determinism means a divergent duplicate is
//     corruption, never a judgment call;
//   - a torn final line in a shard (a worker killed mid-write) is dropped
//     and counted, by the same rule (durable.Scan) the resume loader
//     uses;
//   - empty shards are legal (a partition can own zero replicas).
//
// It is ParseJournal of each source followed by MergeParsed. A line is
// written as json.Marshal writes its journalEntry; a journal's own
// results are compact and escaped already, so they pass through as they
// are, and merge never decodes them.
func MergeJournals(w io.Writer, srcs []MergeSource) (MergeStats, error) {
	parsed := make([]*ParsedJournal, len(srcs))
	for i, src := range srcs {
		p, err := ParseJournal(src)
		if err != nil {
			return MergeStats{Sources: len(srcs)}, err
		}
		parsed[i] = p
	}
	return MergeParsed(w, parsed...)
}

// MergeJournalFiles reads the shard files and publishes their merge to
// dst (which must not be one of the sources) with durable.Publish, so a
// crash mid-join leaves either the old dst or the whole merge.
func MergeJournalFiles(dst string, srcs ...string) (MergeStats, error) {
	sources := make([]MergeSource, 0, len(srcs))
	for _, path := range srcs {
		if path == dst {
			return MergeStats{}, fmt.Errorf("sim: merge: destination %s is also a source", dst)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return MergeStats{}, fmt.Errorf("sim: merge: %w", err)
		}
		sources = append(sources, MergeSource{Name: path, Data: data})
	}
	var buf bytes.Buffer
	stats, err := MergeJournals(&buf, sources)
	if err != nil {
		return stats, err
	}
	if err := durable.Publish(durable.OS{}, dst, buf.Bytes()); err != nil {
		return stats, fmt.Errorf("sim: merge: %w", err)
	}
	return stats, nil
}
