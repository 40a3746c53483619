package analysis

import (
	"go/ast"
	"go/types"
)

// ErrSink guards the write-ordering proofs of the crash-safety core
// (internal/{durable,sim,serve,fabric}): the intent-log-before-202 and
// fsync-before-ack orderings (DESIGN §13) are only proofs if every
// Write/Flush/Sync/Close/Rename on the durable path reports its failure.
// A discarded error from one of these calls silently converts "fsynced
// before acknowledged" into "probably fsynced", and every byte-identity
// claim downstream inherits the "probably".
//
// Flagged: a statement-position call, or an explicit `_ =` discard, of a
// method named Write/WriteString/Flush/Sync/Close returning an error on a
// durable-path receiver (*os.File, *bufio.Writer, or a type declared in
// the crash-safety packages themselves, like sim.Journal and
// serve.jobLog), of os.Rename/os.Remove, and of every function or method
// of internal/durable (Publish, Log.Append, ...). Deferred calls are exempt:
// `defer f.Close()` is the error-path cleanup idiom, and the happy path
// is required to close explicitly — which this analyzer then checks.
// Suppression: //bitlint:errsink <reason> (e.g. "open failed; the open
// error is the one the caller needs").
var ErrSink = &Analyzer{
	Name: "errsink",
	Doc: "in internal/{durable,sim,serve,fabric}, errors from Write/Flush/Sync/Close on durable-path receivers, " +
		"from os.Rename/os.Remove and from internal/durable must be checked (deferred cleanup calls exempt); " +
		"discards void the crash-ordering proofs and need a //bitlint:errsink <reason>",
	Run: runErrSink,
}

// errSinkPkgs is the crash-safety core: the packages whose fsync/rename
// ordering the SIGKILL-restart proofs replay.
var errSinkPkgs = []string{
	"internal/durable",
	"internal/sim",
	"internal/serve",
	"internal/fabric",
}

// errSinkMethods are the durable-path operations whose error results
// carry the crash-ordering signal.
var errSinkMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"Flush":       true,
	"Sync":        true,
	"Close":       true,
}

func inErrSinkScope(path string) bool {
	for _, s := range errSinkPkgs {
		if isPkgSuffix(path, s) {
			return true
		}
	}
	return false
}

func runErrSink(p *Pass) error {
	if !inErrSinkScope(p.Pkg.Path()) {
		return nil
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.DeferStmt:
				// Deferred cleanup is the error-path idiom; skip the whole
				// call, arguments included.
				return false
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					checkDiscard(p, call)
				}
			case *ast.AssignStmt:
				// `_ = f.Sync()` and `_, _ = w.Write(b)`: an explicit
				// discard is still a discard.
				if len(st.Rhs) == 1 && allBlank(st.Lhs) {
					if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
						checkDiscard(p, call)
					}
				}
			}
			return true
		})
	}
	return nil
}

// allBlank reports whether every assignment target is the blank
// identifier.
func allBlank(lhs []ast.Expr) bool {
	for _, l := range lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// checkDiscard reports the call if it is a durable-path operation whose
// error result is being discarded.
func checkDiscard(p *Pass, call *ast.CallExpr) {
	fn := calleeFunc(p.TypesInfo, call)
	if fn == nil || !returnsError(fn) {
		return
	}
	pkg := funcPkgPath(fn)
	if isPkgSuffix(pkg, "internal/durable") {
		p.ReportOrSuppress(call.Pos(), "errsink",
			"discarded error from %s: it reports whether state reached the disk; "+
				"check it or justify with //bitlint:errsink <reason>", fn.FullName())
		return
	}
	if pkg == "os" && (fn.Name() == "Rename" || fn.Name() == "Remove") {
		p.ReportOrSuppress(call.Pos(), "errsink",
			"discarded error from os.%s: a failed rename/remove breaks the atomic-publish ordering; "+
				"check it or justify with //bitlint:errsink <reason>", fn.Name())
		return
	}
	if !errSinkMethods[fn.Name()] || !durableReceiver(fn) {
		return
	}
	p.ReportOrSuppress(call.Pos(), "errsink",
		"discarded error from (%s).%s: the crash-ordering proofs need every durable-path failure surfaced; "+
			"check it or justify with //bitlint:errsink <reason>", recvTypeString(fn), fn.Name())
}

// returnsError reports whether the function's last result is an error.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// durableReceiver reports whether the method's receiver is on the durable
// path: *os.File, *bufio.Writer, or any named type declared inside the
// crash-safety packages (sim.Journal, serve.jobLog, …). Transport-layer
// writers (http.ResponseWriter, JSON encoders) are out of scope — their
// failures are the peer's problem, not the disk's.
func durableReceiver(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		// Interface receivers (io.Closer etc.) are resolved to the
		// interface's declaring package; keep os/bufio only.
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "os", "bufio":
		return true
	}
	return inErrSinkScope(obj.Pkg().Path())
}

// recvTypeString renders the receiver type for diagnostics.
func recvTypeString(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "?"
	}
	return sig.Recv().Type().String()
}
