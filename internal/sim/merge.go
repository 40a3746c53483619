package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

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

// mergeEntry is one shard line, and without Seq one merged line (field
// order identical to journalEntry). Result stays raw: the merged output
// re-emits exactly the bytes the producing engine wrote, so merge can
// never perturb a checkpoint through a decode/encode round trip.
type mergeEntry struct {
	Task    string          `json:"task"`
	Replica int             `json:"replica"`
	Seq     *int            `json:"seq,omitempty"`
	Result  json.RawMessage `json:"result"`
}

// taskOrder tracks where a task sits in the canonical sequence.
type taskOrder struct {
	key string
	// ord is the task's global ordinal: the shard-recorded seq when the
	// shards carry one (partition mode), else the task's first-appearance
	// index within its first source (plain journals).
	ord int
	// firstSeen breaks ordinal ties between plain journals that numbered
	// tasks independently; it is the global discovery index.
	firstSeen int
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
// Result payloads are copied verbatim; merge never re-encodes them.
func MergeJournals(w io.Writer, srcs []MergeSource) (MergeStats, error) {
	stats := MergeStats{Sources: len(srcs)}
	type slot struct {
		result json.RawMessage
		src    string
	}
	entries := map[string]map[int]slot{}
	var order []taskOrder
	orderIdx := map[string]int{}

	for _, src := range srcs {
		var parsed []mergeEntry
		_, err := durable.Scan(src.Data, func(line []byte) error {
			var e mergeEntry
			if err := json.Unmarshal(line, &e); err != nil {
				return err
			}
			if len(e.Result) == 0 || e.Task == "" {
				return errors.New("missing task or result field")
			}
			parsed = append(parsed, e)
			return nil
		})
		switch {
		case errors.Is(err, durable.ErrTorn):
			stats.Torn++
		case err != nil:
			return stats, fmt.Errorf("sim: merge: shard %s: %v", src.Name, err)
		}
		localOrd := 0
		localSeen := map[string]bool{}
		for _, e := range parsed {
			ord := localOrd
			if e.Seq != nil {
				ord = *e.Seq
			}
			if !localSeen[e.Task] {
				localSeen[e.Task] = true
				localOrd++
			}
			if _, ok := orderIdx[e.Task]; !ok {
				orderIdx[e.Task] = len(order)
				order = append(order, taskOrder{key: e.Task, ord: ord, firstSeen: len(order)})
			}
			m := entries[e.Task]
			if m == nil {
				m = map[int]slot{}
				entries[e.Task] = m
			}
			if prev, ok := m[e.Replica]; ok {
				if !bytes.Equal(prev.result, e.Result) {
					return stats, fmt.Errorf(
						"sim: merge: task %s replica %d has conflicting results in %s and %s — shards of one sweep are deterministic, so this is corruption or a mixed-seed merge",
						e.Task, e.Replica, prev.src, src.Name)
				}
				stats.Deduped++
				continue
			}
			m[e.Replica] = slot{result: e.Result, src: src.Name}
		}
	}

	sort.SliceStable(order, func(a, b int) bool {
		if order[a].ord != order[b].ord {
			return order[a].ord < order[b].ord
		}
		return order[a].firstSeen < order[b].firstSeen
	})

	for _, t := range order {
		m := entries[t.key]
		replicas := make([]int, 0, len(m))
		//bitlint:maporder keys are sorted immediately below; emission order never follows map order
		for r := range m {
			replicas = append(replicas, r)
		}
		sort.Ints(replicas)
		for _, r := range replicas {
			line, err := json.Marshal(mergeEntry{Task: t.key, Replica: r, Result: m[r].result})
			if err != nil {
				return stats, fmt.Errorf("sim: merge encode: %w", err)
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				return stats, fmt.Errorf("sim: merge write: %w", err)
			}
			stats.Entries++
		}
		stats.Tasks++
	}
	return stats, nil
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
