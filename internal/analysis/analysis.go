// Package analysis is the repo's static-contract suite ("bitlint"): a set
// of analyzers that machine-enforce the invariants every simulation result
// rests on but the compiler cannot see — engines deterministic in
// (seed, Config, Shards), all randomness through internal/rng, adoption
// probabilities in [0, 1] with the Proposition 3 structure, and entry
// points that validate their Config before spawning work.
//
// The package mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is self-contained: the container has no
// module proxy access, so loading is driven by `go list -deps -export`
// plus the standard library's gc export-data importer instead of
// go/packages. Analyzers written here keep the x/tools style and could be
// ported verbatim if the dependency ever becomes available.
//
// Suppression: a diagnostic can be silenced — where the analyzer allows
// it — by a justification comment on the offending line or the line
// directly above:
//
//	x := a / b //bitlint:probok denominator checked non-zero above
//
// The directive name is analyzer-specific (floatexact, wallclock,
// maporder, probok) and the free-text reason is mandatory: an annotation
// without a reason is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check. It deliberately mirrors
// x/tools/go/analysis.Analyzer so checks read like standard vet passes.
type Analyzer struct {
	// Name is the vet-style identifier used in diagnostics and -json keys.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run inspects one package and reports diagnostics through the pass.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// diags accumulates reports; the driver collects them after Run.
	diags []Diagnostic
	// directives maps filename -> line -> parsed //bitlint: directives.
	directives map[string]map[int][]directive
}

// Diagnostic is one finding, positioned in the fileset of the pass that
// produced it.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed is true when a matching //bitlint: justification covers
	// the finding; suppressed diagnostics are reported by -json mode (and
	// by -show-suppressed) but do not fail the build.
	Suppressed bool
	// Reason is the justification text of the suppressing directive.
	Reason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directive is one parsed //bitlint:<name> <reason> comment.
type directive struct {
	name   string
	reason string
	pos    token.Pos
}

// directivePrefix introduces a suppression/justification comment.
const directivePrefix = "//bitlint:"

// buildDirectives indexes every //bitlint: comment in the pass's files by
// file and line so analyzers can query them in O(1).
func (p *Pass) buildDirectives() {
	p.directives = make(map[string]map[int][]directive)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				name, reason := rest, ""
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					name, reason = rest[:i], strings.TrimSpace(rest[i+1:])
				}
				posn := p.Fset.Position(c.Pos())
				byLine := p.directives[posn.Filename]
				if byLine == nil {
					byLine = make(map[int][]directive)
					p.directives[posn.Filename] = byLine
				}
				byLine[posn.Line] = append(byLine[posn.Line],
					directive{name: name, reason: reason, pos: c.Pos()})
			}
		}
	}
}

// suppression looks for a //bitlint:<name> directive covering pos: on the
// same line or the line immediately above. It returns the justification
// text and whether a directive was found. A directive with an empty
// reason is reported as its own diagnostic and does not suppress.
func (p *Pass) suppression(pos token.Pos, name string) (string, bool) {
	if p.directives == nil {
		p.buildDirectives()
	}
	posn := p.Fset.Position(pos)
	byLine := p.directives[posn.Filename]
	for _, line := range []int{posn.Line, posn.Line - 1} {
		for _, d := range byLine[line] {
			if d.name != name {
				continue
			}
			if d.reason == "" {
				p.Reportf(pos, "%s%s directive needs a justification: %s%s <reason>",
					directivePrefix, name, directivePrefix, name)
				continue
			}
			return d.reason, true
		}
	}
	return "", false
}

// ReportOrSuppress records the diagnostic, marking it suppressed when a
// //bitlint:<directive> justification covers pos.
func (p *Pass) ReportOrSuppress(pos token.Pos, directiveName, format string, args ...interface{}) {
	d := Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	if reason, ok := p.suppression(pos, directiveName); ok {
		d.Suppressed = true
		d.Reason = reason
	}
	p.diags = append(p.diags, d)
}

// deterministicPkgs are the package-path suffixes whose code must be a
// pure function of (seed, Config, Shards): the engines, the protocol
// algebra, the fault schedules, the Monte-Carlo runner, the RNG itself,
// the numeric layers (distributions, polynomials, bias constants, Markov
// chains) whose outputs experiments compare across runs, and the sweep
// fabric, whose shard assignment and merge must replay byte-identically
// (lease clocks are threaded in as explicit time.Time arguments, never
// read ambiently).
//
// Membership audit (bitlint v2): fabric IS listed — its Assign/merge
// path is part of the byte-identity proof and board.go already threads
// every clock explicitly, so detrand/taintdet hold with zero
// suppressions there. sweep and serve are deliberately NOT listed:
// sweep's lease arbitration and serve's HTTP coordinator legitimately
// own wall-clock policy (lease expiry, retry backoff, heartbeats) via
// injected clocks, so a package-wide ambient-call ban would be a
// suppression farm. Their determinism obligations are instead carried
// value-wise by taintdet (nondeterminism must not reach journals,
// intent logs, result caches, or wire payloads) and structurally by
// ctxloop/errsink.
var deterministicPkgs = []string{
	"internal/engine",
	"internal/protocol",
	"internal/fault",
	"internal/sim",
	"internal/rng",
	"internal/bias",
	"internal/markov",
	"internal/fabric",
	// vm and evolve joined with the bytecode engine: Eval must be a pure
	// function of (program, k, b) for content-addressed protocol identity,
	// and the evolutionary search replays byte-identically from its seed.
	"internal/vm",
	"internal/evolve",
	// dist and poly feed the rest: dist.LogChoose builds AdoptProb (Eq. 4)
	// and the chains' rows, and poly's root finding fixes the adversarial
	// X₀ of Theorem 12.
	"internal/dist",
	"internal/poly",
}

// IsDeterministicPkg reports whether the import path belongs to the
// deterministic core. Matching is by path suffix so analysistest fixtures
// under synthetic module paths participate in the same rules.
func IsDeterministicPkg(path string) bool {
	for _, s := range deterministicPkgs {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// All returns the full bitlint suite in stable order: the five local
// analyzers from v1 (detrand, maporder, floatcmp, probrange,
// validatefirst) plus the four whole-program contract analyzers of v2
// (taintdet, ctxloop, errsink, atomicmix).
func All() []*Analyzer {
	as := []*Analyzer{
		DetRand, MapOrder, FloatCmp, ProbRange, ValidateFirst,
		TaintDet, CtxLoop, ErrSink, AtomicMix,
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// RunAnalyzers applies every analyzer to the package and returns the
// combined diagnostics sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
		out = append(out, pass.diags...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
