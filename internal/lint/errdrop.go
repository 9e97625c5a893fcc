package lint

import (
	"go/ast"
	"go/types"
)

// errdrop flags silently ignored error results from functions and methods
// defined in the determinism-critical packages: Ctx.Send variants, the
// budget-charging APIs (SetResident, AddResident), Step and the
// collectives. These errors carry budget violations, stale-context
// sends and recovery failures — the accounting the reproduced theorems are
// about. Dropping one silently under-reports the model's central quantities
// (the PR 2 exit-code bug was precisely an ignored violation surface).
//
// Inside a critical package the analyzer additionally covers the os-level
// durability primitives — os.Rename, (*os.File).Close and (*os.File).Sync —
// including when deferred. A dropped error there silently forfeits
// crash-durability: the fsync may never have reached the disk, the rename
// may never have committed, and the checkpoint the recovery path depends on
// quietly does not exist (the torn-write class internal/durable defends
// against).
//
// Both a bare call statement and a blank-identifier discard (`_ = …`,
// `v, _ := …`) are flagged; an intentional discard must carry an annotation
// explaining why it is safe.
var errdropAnalyzer = &Analyzer{
	Name: "errdrop",
	Doc:  "flag dropped error results from deterministic-stack APIs",
	Run:  runErrdrop,
}

var errorType = types.Universe.Lookup("error").Type()

func runErrdrop(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn, idx := p.stackCalleeWithError(call); fn != nil {
					p.Reportf(call.Pos(), "error result %d of %s is silently dropped; handle it or annotate with //detlint:ok errdrop -- <reason>", idx, calleeLabel(fn))
				}
			case *ast.DeferStmt:
				// A deferred durability call drops its error by
				// construction; the critical-package APIs themselves are
				// never sensibly deferred, so only the os-level primitives
				// are checked here.
				if fn := p.callee(stmt.Call); fn != nil && p.durabilityCallee(fn) {
					p.Reportf(stmt.Pos(), "deferred %s discards its error; handle it in a named-error defer or annotate with //detlint:ok errdrop -- <reason>", calleeLabel(fn))
				}
			case *ast.AssignStmt:
				p.checkAssignDrop(stmt)
			}
			return true
		})
	}
}

// checkAssignDrop flags `_ = f()` and `v, _ := f()` when the blanked
// position is an error from a deterministic-stack callee.
func (p *Pass) checkAssignDrop(as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := p.callee(call)
	if fn == nil || !(p.criticalCallee(fn) || p.durabilityCallee(fn)) {
		return
	}
	results := signatureResults(fn)
	if results == nil || results.Len() != len(as.Lhs) {
		return
	}
	for i := 0; i < results.Len(); i++ {
		if !types.Identical(results.At(i).Type(), errorType) {
			continue
		}
		if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			p.Reportf(as.Pos(), "error result %d of %s is discarded with a blank identifier; handle it or annotate with //detlint:ok errdrop -- <reason>", i, calleeLabel(fn))
		}
	}
}

// stackCalleeWithError resolves call's callee; it returns the callee and
// the index of its first error result when the callee is defined in a
// determinism-critical package and returns an error, and (nil, 0) otherwise.
func (p *Pass) stackCalleeWithError(call *ast.CallExpr) (*types.Func, int) {
	fn := p.callee(call)
	if fn == nil || !(p.criticalCallee(fn) || p.durabilityCallee(fn)) {
		return nil, 0
	}
	results := signatureResults(fn)
	if results == nil {
		return nil, 0
	}
	for i := 0; i < results.Len(); i++ {
		if types.Identical(results.At(i).Type(), errorType) {
			return fn, i
		}
	}
	return nil, 0
}

// durabilityCallee reports whether fn is one of the os-level durability
// primitives — os.Rename, (*os.File).Close, (*os.File).Sync — whose error
// must not be dropped in a determinism-critical package: an unchecked
// failure there means data believed durable may not exist after a crash.
// Non-critical packages are vet's business, as for the stack APIs.
func (p *Pass) durabilityCallee(fn *types.Func) bool {
	if !p.Critical {
		return false
	}
	pkg := fn.Pkg()
	if pkg == nil || pkg.Path() != "os" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Recv() == nil {
		return fn.Name() == "Rename"
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "File" {
		return false
	}
	return fn.Name() == "Close" || fn.Name() == "Sync"
}

// callee resolves the called function or method, or nil for builtins,
// conversions and indirect calls through function values.
func (p *Pass) callee(call *ast.CallExpr) *types.Func {
	return calleeFunc(p.Info, call)
}

// calleeFunc resolves a call's target function or method, unwrapping
// explicit generic instantiation (f[T](…) parses as a call whose Fun is an
// IndexExpr/IndexListExpr) — without the unwrap, every instantiated generic
// call would silently escape analysis.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

func signatureResults(fn *types.Func) *types.Tuple {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Results()
}

// calleeLabel renders a short human name: Recv.Method or pkg.Func.
func calleeLabel(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
