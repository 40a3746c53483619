package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCleanTree is the merge gate in miniature: the repo's own packages
// must carry zero unsuppressed bitlint diagnostics.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module for export data")
	}
	var out strings.Builder
	if err := run([]string{"-C", "../..", "./..."}, &out); err != nil {
		t.Fatalf("tree is not lint-clean: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "clean") {
		t.Errorf("expected clean summary, got:\n%s", out.String())
	}
}

// writeSeededModule creates a throwaway module that violates every
// analyzer family: detrand (math/rand import), floatcmp (p == 0.5),
// maporder, taintdet (time.Now into a Journal record), errsink (dropped
// *os.File Close), ctxloop (severed context and an unobserved loop), and
// atomicmix (mixed atomic/plain access) — to prove a violating diff
// fails the lint gate on each front.
func writeSeededModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module seeded.example\n\ngo 1.22\n",
		"internal/engine/bad.go": `package engine

import "math/rand"

func step(p float64, m map[int]int) int {
	if p == 0.5 {
		return rand.Int()
	}
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}
`,
		"internal/sim/bad.go": `package sim

import (
	"os"
	"time"
)

type Journal struct{ lines []string }

func (j *Journal) Record(line string) {
	j.lines = append(j.lines, line)
}

func Leak(j *Journal) {
	stamp := time.Now().String()
	j.Record(stamp)
}

func Drop(f *os.File) {
	f.Close()
}
`,
		"internal/serve/bad.go": `package serve

import (
	"context"
	"sync/atomic"
)

var hits int64

func Spin(ctx context.Context, work chan int) {
	go helper(context.Background())
	for {
		<-work
	}
}

func helper(ctx context.Context) {}

func Bump() { atomic.AddInt64(&hits, 1) }

func Peek() int64 { return hits }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestSeededViolationsFail(t *testing.T) {
	dir := writeSeededModule(t)
	var out strings.Builder
	err := run([]string{"-C", dir, "./..."}, &out)
	if err == nil {
		t.Fatalf("seeded violations not detected:\n%s", out.String())
	}
	if !errors.Is(err, errViolations) {
		t.Fatalf("expected lint findings, got operational error: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"detrand", "floatcmp", "maporder",
		"taintdet", "errsink", "ctxloop", "atomicmix",
	} {
		if !strings.Contains(got, "("+want+")") {
			t.Errorf("missing %s finding in output:\n%s", want, got)
		}
	}
}

func TestJSONMode(t *testing.T) {
	dir := writeSeededModule(t)
	var out strings.Builder
	err := run([]string{"-C", dir, "-json", "./..."}, &out)
	if !errors.Is(err, errViolations) {
		t.Fatalf("expected lint findings, got: %v", err)
	}
	var rep struct {
		Packages     []string `json:"packages"`
		Unsuppressed int      `json:"unsuppressed"`
		Diagnostics  []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out.String())
	}
	if rep.Unsuppressed == 0 || len(rep.Diagnostics) == 0 {
		t.Fatalf("expected diagnostics in JSON report, got %+v", rep)
	}
	analyzers := map[string]bool{}
	for _, d := range rep.Diagnostics {
		if d.File == "" || d.Line == 0 || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
		analyzers[d.Analyzer] = true
	}
	for _, want := range []string{
		"detrand", "floatcmp", "maporder",
		"taintdet", "errsink", "ctxloop", "atomicmix",
	} {
		if !analyzers[want] {
			t.Errorf("JSON report missing %s diagnostics", want)
		}
	}
}

// TestJSONRuleTable checks the SARIF-style tool metadata: every analyzer
// in the suite appears as a rule with its doc string.
func TestJSONRuleTable(t *testing.T) {
	dir := writeSeededModule(t)
	var out strings.Builder
	err := run([]string{"-C", dir, "-json", "./..."}, &out)
	if !errors.Is(err, errViolations) {
		t.Fatalf("expected lint findings, got: %v", err)
	}
	var rep struct {
		Tool struct {
			Name  string `json:"name"`
			Rules []struct {
				ID  string `json:"id"`
				Doc string `json:"doc"`
			} `json:"rules"`
		} `json:"tool"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("-json output does not parse: %v", err)
	}
	if rep.Tool.Name != "bitlint" {
		t.Errorf("tool name = %q, want bitlint", rep.Tool.Name)
	}
	if len(rep.Tool.Rules) != 9 {
		t.Errorf("rule table has %d entries, want 9", len(rep.Tool.Rules))
	}
	for _, r := range rep.Tool.Rules {
		if r.ID == "" || r.Doc == "" {
			t.Errorf("incomplete rule entry: %+v", r)
		}
	}
}

// writeSuppressedModule seeds one justified suppression and one
// empty-reason directive for the audit tests.
func writeSuppressedModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module audited.example\n\ngo 1.22\n",
		"cmd/tool/f.go": `package main

import (
	"fmt"
	"time"
)

func main() {
	fmt.Println(time.Now()) //bitlint:wallclock demo fixture exercising the audit path
}
`,
		"internal/engine/f.go": `package engine

func count(m map[int]int) int {
	s := 0
	//bitlint:maporder
	for _, v := range m {
		s += v
	}
	return s
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestSuppressionAudit lists justifications and fails on the empty one.
func TestSuppressionAudit(t *testing.T) {
	dir := writeSuppressedModule(t)
	var out strings.Builder
	err := run([]string{"-C", dir, "-suppression-audit", "./..."}, &out)
	if !errors.Is(err, errViolations) {
		t.Fatalf("empty-reason directive should fail the audit, got: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "demo fixture exercising the audit path") {
		t.Errorf("audit output missing the justified suppression:\n%s", got)
	}
	if !strings.Contains(got, "EMPTY REASON") {
		t.Errorf("audit output missing the empty-reason report:\n%s", got)
	}
}

// TestSuppressionAuditCleanTree runs the audit over the repo itself:
// every suppression in the tree must carry a justification.
func TestSuppressionAuditCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module for export data")
	}
	var out strings.Builder
	if err := run([]string{"-C", "../..", "-suppression-audit", "./..."}, &out); err != nil {
		t.Fatalf("suppression audit failed on the repo: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "suppression(s), 0 with empty reasons") {
		t.Errorf("expected audit summary, got:\n%s", out.String())
	}
}

func TestBadPattern(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-C", "../..", "./no/such/dir/..."}, &out); err == nil {
		t.Error("expected error for unknown package pattern")
	}
}
