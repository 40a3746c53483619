package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// craftedJournal holds lines a journal writer never emits but a merge
// must still write as json.Marshal does: whitespace inside a result,
// characters that HTML escaping rewrites, U+2028 and U+2029 as raw bytes,
// and the non-ASCII task keys of the sweep.
const craftedJournal = `{"task":"ws","replica":0,"result":{"rounds": 1, "x" : [1,	2]}}
{"task":"ws","replica":1,"result":{"tag":"a b"}}
{"task":"html","replica":0,"result":{"tag":"<b>&amp;</b>"}}
{"task":"a<b>&c","replica":0,"result":{"rounds":1}}
{"task":"seps","replica":0,"result":{"tag":"a` + "\u2028" + `b` + "\u2029" + `c"}}
{"task":"seps` + "\u2028" + `","replica":0,"result":"` + "\u2029" + `"}
{"task":"Minority(ℓ=√(n·ln n))#2bbc001bb75b0215","replica":3,"seq":5,"result":{"converged":true,"rounds":4}}
{"task":"Majority(ℓ=3)#06d77754e9efea1e","replica":-1,"result":null}
{"task":"é😀","replica":7,"result":[1e3,-0.5,"é"]}
{"task":"esc","replica":0,"result":"\"\\\/\b\f\n\r\t\u0001"}
`

// testJournals returns the journals of a task and a unit, plain and
// partitioned, and the crafted lines.
func testJournals(t *testing.T) []MergeSource {
	t.Helper()
	dir := t.TempDir()
	var srcs []MergeSource
	for _, part := range []PartitionFunc{nil, func(_ string, r int) bool { return r%2 == 0 }} {
		path := filepath.Join(dir, "j.jsonl")
		j, err := OpenJournalOpts(path, JournalOptions{Partition: part})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunContext(context.Background(), voterTask(9, 5), 2, j); err != nil {
			t.Fatal(err)
		}
		u, _ := walkUnit(3, 7, nil)
		if _, err := RunUnit(context.Background(), u, 2, j); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, MergeSource{Name: path, Data: data})
	}
	return append(srcs, MergeSource{Name: "crafted", Data: []byte(craftedJournal)})
}

// Every merged line equals json.Marshal of its journalEntry, on every line
// of the test journals; and the merge of the crafted lines, already in
// canonical order, is those lines as json.Marshal writes them.
func TestMergeLineMatchesMarshal(t *testing.T) {
	lines := 0
	for _, src := range testJournals(t) {
		p, err := ParseJournal(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range p.entries {
			want, err := json.Marshal(journalEntry{Task: e.Task, Replica: e.Replica, Result: e.Result})
			if err != nil {
				t.Fatal(err)
			}
			task, err := json.Marshal(e.Task)
			if err != nil {
				t.Fatal(err)
			}
			got, err := appendMergeLine(nil, task, e.Replica, e.Result)
			if err != nil {
				t.Fatal(err)
			}
			if want = append(want, '\n'); !bytes.Equal(got, want) {
				t.Errorf("%s: merged line\n%s\nwant\n%s", src.Name, got, want)
			}
			lines++
		}
	}
	// 9 + 7 plain lines, 5 + 4 partitioned ones, 10 crafted ones.
	if lines != 35 {
		t.Fatalf("compared %d lines, want 35", lines)
	}

	var out bytes.Buffer
	if _, err := MergeJournals(&out, []MergeSource{{Name: "crafted", Data: []byte(craftedJournal)}}); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	p, _ := ParseJournal(MergeSource{Data: []byte(craftedJournal)})
	for _, e := range p.entries {
		line, _ := json.Marshal(journalEntry{Task: e.Task, Replica: e.Replica, Result: e.Result})
		want.Write(append(line, '\n'))
	}
	if out.String() != want.String() {
		t.Fatalf("merged crafted journal:\n%s\nwant\n%s", out.String(), want.String())
	}
}

// FuzzMergeLine: for every task key, replica and valid JSON result, the
// merge writes the bytes json.Marshal writes for the journalEntry.
func FuzzMergeLine(f *testing.F) {
	f.Add("Minority(ℓ=√(n·ln n))#2bbc001bb75b0215", 3, []byte(`{"converged":true,"rounds":4}`))
	f.Add("a<b>&c", -1, []byte(`{"tag" : "<b>&amp;</b>",	"x":[1, 2]}`))
	f.Add("seps\u2028", 0, []byte(`"a`+"\u2028"+`b`+"\u2029"+`"`))
	f.Add("\xff", 1<<30, []byte(" null "))
	f.Fuzz(func(t *testing.T, task string, replica int, result []byte) {
		if !json.Valid(result) {
			return
		}
		want, err := json.Marshal(journalEntry{Task: task, Replica: replica, Result: result})
		if err != nil {
			t.Fatal(err)
		}
		key, err := json.Marshal(task)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendMergeLine(nil, key, replica, result)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("merged line\n%q\nwant\n%q", got, want)
		}
	})
}
