// Command bitlint runs the repo's static-contract suite (internal/analysis)
// over a set of packages and fails when any unsuppressed diagnostic
// remains. It is the machine check behind `make lint`: determinism
// (detrand, maporder, taintdet), probability-domain (probrange),
// numeric-comparison (floatcmp), fail-fast (validatefirst),
// cancellation (ctxloop), crash-safety (errsink), and data-race
// (atomicmix) contracts all gate CI here instead of living only in
// comments and dynamic suites.
//
// Usage:
//
//	bitlint [-json] [-show-suppressed] [-suppression-audit] [packages...]
//
// Packages default to ./... and accept any `go list` pattern. The exit
// status is non-zero when an unsuppressed diagnostic is found, so the
// tool slots directly into Makefiles. -json emits every diagnostic —
// including suppressed ones with their justifications — as one JSON
// document for tooling, with SARIF-style tool/rule metadata; the human
// mode prints vet-style lines.
//
// -suppression-audit lists every //bitlint: justification in the tree
// (file, analyzer, reason) and fails if any directive has an empty
// reason — the audit that keeps suppressions honest.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"bitspread/internal/analysis"
)

// errViolations distinguishes lint findings from operational failures.
var errViolations = errors.New("bitlint: unsuppressed diagnostics")

// jsonDiag is the stable -json wire form of one diagnostic.
type jsonDiag struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Column     int    `json:"column"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	Reason     string `json:"reason,omitempty"`
}

// jsonTool and jsonRule are the SARIF-style driver metadata: enough for a
// converter to produce a conformant sarif run without re-deriving the
// rule table from source.
type jsonTool struct {
	Name    string     `json:"name"`
	Version string     `json:"version"`
	Rules   []jsonRule `json:"rules"`
}

type jsonRule struct {
	ID  string `json:"id"`
	Doc string `json:"doc"`
}

// jsonReport is the top-level -json document. Tool was added for bitlint
// v2; earlier fields are unchanged so existing consumers keep working.
type jsonReport struct {
	Tool         jsonTool   `json:"tool"`
	Packages     []string   `json:"packages"`
	Diagnostics  []jsonDiag `json:"diagnostics"`
	Unsuppressed int        `json:"unsuppressed"`
}

// emptyReasonDiag recognizes the diagnostic the suite reports for a
// //bitlint: directive that carries no justification text.
func emptyReasonDiag(d analysis.Diagnostic) bool {
	return strings.Contains(d.Message, "directive needs a justification")
}

// suppressionAudit lists every suppression with its justification and
// fails when any directive has an empty reason.
func suppressionAudit(w io.Writer, diags []analysis.Diagnostic) error {
	empty := 0
	suppressed := 0
	for _, d := range diags {
		if emptyReasonDiag(d) {
			empty++
			fmt.Fprintf(w, "%s: EMPTY REASON: %s\n", d.Pos, d.Message)
			continue
		}
		if d.Suppressed {
			suppressed++
			fmt.Fprintf(w, "%s: [%s] %s\n", d.Pos, d.Analyzer, d.Reason)
		}
	}
	fmt.Fprintf(w, "bitlint: %d suppression(s), %d with empty reasons\n", suppressed, empty)
	if empty > 0 {
		return fmt.Errorf("%w: %d suppression directive(s) without a justification", errViolations, empty)
	}
	return nil
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bitlint", flag.ContinueOnError)
	fs.SetOutput(w)
	jsonOut := fs.Bool("json", false, "emit diagnostics (including suppressed ones) as JSON")
	showSuppressed := fs.Bool("show-suppressed", false, "also print suppressed diagnostics with their justifications")
	dir := fs.String("C", ".", "directory to resolve package patterns in")
	audit := fs.Bool("suppression-audit", false, "list every //bitlint: suppression with its justification; fail on empty reasons")
	if err := fs.Parse(args); err != nil {
		return err
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(*dir, patterns...)
	if err != nil {
		return err
	}
	analyzers := analysis.All()

	var diags []analysis.Diagnostic
	pkgPaths := make([]string, 0, len(pkgs))
	for _, pkg := range pkgs {
		pkgPaths = append(pkgPaths, pkg.PkgPath)
		ds, err := analysis.RunAnalyzers(pkg, analyzers)
		if err != nil {
			return err
		}
		diags = append(diags, ds...)
	}
	sort.Strings(pkgPaths)

	if *audit {
		return suppressionAudit(w, diags)
	}
	unsuppressed := 0
	for _, d := range diags {
		if !d.Suppressed {
			unsuppressed++
		}
	}

	if *jsonOut {
		rep := jsonReport{
			Tool:         jsonTool{Name: "bitlint", Version: "2", Rules: []jsonRule{}},
			Packages:     pkgPaths,
			Diagnostics:  []jsonDiag{},
			Unsuppressed: unsuppressed,
		}
		for _, a := range analyzers {
			rep.Tool.Rules = append(rep.Tool.Rules, jsonRule{ID: a.Name, Doc: a.Doc})
		}
		for _, d := range diags {
			rep.Diagnostics = append(rep.Diagnostics, jsonDiag{
				File:       d.Pos.Filename,
				Line:       d.Pos.Line,
				Column:     d.Pos.Column,
				Analyzer:   d.Analyzer,
				Message:    d.Message,
				Suppressed: d.Suppressed,
				Reason:     d.Reason,
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		for _, d := range diags {
			if d.Suppressed && !*showSuppressed {
				continue
			}
			if d.Suppressed {
				fmt.Fprintf(w, "%s: suppressed [%s]: %s (%s)\n", d.Pos, d.Reason, d.Message, d.Analyzer)
			} else {
				fmt.Fprintln(w, d)
			}
		}
	}

	if unsuppressed > 0 {
		return fmt.Errorf("%w: %d finding(s) across %d package(s)", errViolations, unsuppressed, len(pkgs))
	}
	if !*jsonOut {
		// Nothing is unsuppressed here, so every diagnostic is a justified
		// suppression.
		fmt.Fprintf(w, "bitlint: %d package(s) clean (%d suppressed justification(s))\n",
			len(pkgs), len(diags))
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
