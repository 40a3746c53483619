package analysis

import (
	"go/ast"
	"go/types"
)

// TaintDet is the whole-program determinism analyzer: it proves, by
// interprocedural dataflow (taint.go), that values derived from
// nondeterministic sources — wall clocks, PIDs, host identity, CPU
// counts, ambient randomness, map iteration order — never flow into the
// artifacts the byte-identity proofs stand on: sim.Journal records, the
// serve result cache, every durable.Log append (the intent log among
// them) and durable.Publish, TaskKey/Assign hash inputs in the
// deterministic core, and engine.Result values.
//
// detrand bans the *calls* inside the deterministic core; taintdet
// complements it across the whole tree by following the *values*: a
// timestamp read legitimately in cmd/bitspreadd (suppressed wallclock
// metadata) must still never end up inside a journal line, because the
// fabric's merge proof (DESIGN §14) compares those lines byte-for-byte
// across workers with different clocks.
//
// The explicit-clock idiom is recognized as sanitized: a callee parameter
// of type time.Time (or func() time.Time) is a deliberate injection
// point — fabric.Board's `now` arguments — and taint never crosses it.
var TaintDet = &Analyzer{
	Name: "taintdet",
	Doc: "nondeterministic values (time.Now/Since/Until, os.Getpid, runtime.NumCPU/GOMAXPROCS, math/crypto-rand, " +
		"map iteration order) must not flow into journal records, result-cache writes, durable appends and " +
		"publishes (the intent log among them), TaskKey/Assign hash inputs, or engine.Result values; explicit " +
		"time.Time parameters are sanitized entry points; justify intended flows with //bitlint:taintdet <reason>",
	Run: runTaintDet,
}

// taintSources maps package path → function name → origin description.
// Any call into math/rand or crypto/rand is a source regardless of name.
var taintSources = map[string]map[string]string{
	"time": {
		"Now":   "time.Now",
		"Since": "time.Since",
		"Until": "time.Until",
	},
	"os": {
		"Getpid":   "os.Getpid",
		"Getppid":  "os.Getppid",
		"Hostname": "os.Hostname",
	},
	"runtime": {
		"NumCPU":       "runtime.NumCPU",
		"GOMAXPROCS":   "runtime.GOMAXPROCS",
		"NumGoroutine": "runtime.NumGoroutine",
	},
}

// ambientRandPkgs taint every call: none of their results are seedable
// reproductions of the repo's rng streams.
var ambientRandPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

func taintSourceOf(p *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(p.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	pkg := funcPkgPath(fn)
	if ambientRandPkgs[pkg] {
		return pkg + "." + fn.Name(), true
	}
	if names, ok := taintSources[pkg]; ok {
		if desc, ok := names[fn.Name()]; ok {
			return desc, true
		}
	}
	return "", false
}

// taintSinkOf classifies the calls whose arguments must stay
// deterministic.
func taintSinkOf(p *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(p.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	recv := recvTypeName(fn)
	switch {
	// sim.Journal.Record: the checkpoint line every byte-identity proof
	// replays.
	case fn.Name() == "Record" && recv == "Journal" && isPkgSuffix(funcPkgPath(fn), "internal/sim"):
		return "journal record", true
	// serve's content-addressed result cache.
	case fn.Name() == "put" && recv == "resultCache" && isPkgSuffix(funcPkgPath(fn), "internal/serve"):
		return "result-cache publish", true
	// internal/durable writes every byte the crash-safety proofs replay:
	// the intent log, the journal, the result cache, the fabric's shards
	// and the registered protocols.
	case fn.Name() == "Append" && recv == "Log" && isPkgSuffix(funcPkgPath(fn), "internal/durable"):
		return "durable log append", true
	case fn.Name() == "Publish" && recv == "" && isPkgSuffix(funcPkgPath(fn), "internal/durable"):
		return "durable publish", true
	// serve's wire responses: handlers answer workers whose shard
	// assignment must not depend on coordinator-local nondeterminism.
	case fn.Name() == "writeJSON" && isPkgSuffix(funcPkgPath(fn), "internal/serve"):
		return "wire payload", true
	}
	// Hash-state writes in the deterministic core: TaskKey and
	// fabric.Assign fold their inputs through FNV — a tainted input there
	// silently reshuffles shard ownership or journal keys.
	if IsDeterministicPkg(p.Pkg.Path()) && len(call.Args) > 0 {
		if funcPkgPath(fn) == "fmt" && (fn.Name() == "Fprintf" || fn.Name() == "Fprint" || fn.Name() == "Fprintln") {
			if isHashType(p, call.Args[0]) {
				return "hash input (TaskKey/Assign)", true
			}
		}
		if fn.Name() == "Write" || fn.Name() == "Sum" {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isHashType(p, sel.X) {
				return "hash input (TaskKey/Assign)", true
			}
		}
	}
	return "", false
}

// isHashType reports whether the expression's static type is one of the
// hash package's digest interfaces (hash.Hash, Hash32, Hash64).
func isHashType(p *Pass, x ast.Expr) bool {
	tv, ok := p.TypesInfo.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "hash" {
		return false
	}
	switch obj.Name() {
	case "Hash", "Hash32", "Hash64":
		return true
	}
	return false
}

// recvTypeName returns the name of a method's receiver type ("" for
// plain functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// taintCompositeSink protects engine.Result: a Result literal or field
// write built from tainted data corrupts every downstream comparison.
func taintCompositeSink(p *Pass, t types.Type) (string, bool) {
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Name() == "Result" && obj.Pkg() != nil && isPkgSuffix(obj.Pkg().Path(), "internal/engine") {
		return "engine.Result", true
	}
	return "", false
}

// sanitizedClockParam blesses the explicit-clock idiom: threading a
// time.Time (or a clock function) as a parameter is the contract's
// sanctioned alternative to ambient reads.
func sanitizedClockParam(t types.Type) bool {
	if sig, ok := t.Underlying().(*types.Signature); ok {
		// func() time.Time clock injectors (serve's Options.now).
		if sig.Params().Len() == 0 && sig.Results().Len() == 1 {
			t = sig.Results().At(0).Type()
		} else {
			return false
		}
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Time" && obj.Pkg() != nil && obj.Pkg().Path() == "time"
}

func runTaintDet(p *Pass) error {
	eng := newTaintEngine(p, taintConfig{
		source:         taintSourceOf,
		sink:           taintSinkOf,
		compositeSink:  taintCompositeSink,
		sanitizedParam: sanitizedClockParam,
		mapRange:       true,
	})
	for _, f := range eng.run() {
		p.ReportOrSuppress(f.pos, "taintdet",
			"%s flows into %s (entered at %s): the byte-identity proofs require this value to be a pure function "+
				"of (seed, Config, Shards); thread it explicitly or justify with //bitlint:taintdet <reason>",
			f.origin.desc, f.sink, p.Fset.Position(f.origin.pos))
	}
	return nil
}
