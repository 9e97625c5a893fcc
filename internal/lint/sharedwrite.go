package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// sharedwrite flags writes to captured state from inside step closures — the
// function literals handed to Cluster.Step/StepFirst/RouteStep, which the
// simulators run concurrently on a worker pool (one goroutine per machine
// block, see mpc.Config.Parallelism) — and inside the block closures handed to the
// pool itself (Cluster.runBlocks, which also runs the receiver half of the
// vertex-keyed exchanges). A write to a variable captured from the enclosing
// driver races between workers, and even when protected it would commit in
// scheduling order, breaking the bit-identity contract.
//
// Deterministic write shapes stay silent:
//
//   - element writes into a captured slice/array whose index depends on an
//     identifier declared inside the closure (the per-machine partition
//     pattern: out[x.Machine] = …, or marks[v] for v in [x.Lo, x.Hi), or
//     out[m] for m in a block closure's [lo, hi));
//   - any write dominated by an equality guard on the closure parameter
//     (the single-writer gather pattern: if x.Machine == 0 { total = … }).
//
// Everything else — plain captured variables, captured map elements (map
// writes are unsynchronized AND the iteration later is order-randomized),
// fields reached through a captured base, and pointer targets — is flagged.
// Safe-by-construction exceptions carry a //detlint:ok sharedwrite
// annotation with the justification.
var sharedwriteAnalyzer = &Analyzer{
	Name: "sharedwrite",
	Doc:  "flag writes to captured state inside Step/StepFirst/RouteStep/runBlocks closures",
	Run:  runSharedwrite,
}

// poolMethods names the methods whose function-literal arguments run
// concurrently on the worker pool.
var poolMethods = map[string]bool{"Step": true, "StepFirst": true, "RouteStep": true, "runBlocks": true}

func runSharedwrite(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !poolMethods[sel.Sel.Name] {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					p.checkStepClosure(lit)
				}
			}
			return true
		})
	}
}

// checkStepClosure walks one step closure's body and reports shared writes.
func (p *Pass) checkStepClosure(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.FuncLit:
			// A nested literal is its own scope, but its captures of the step
			// closure's outer environment are just as shared: keep walking
			// with the same boundary.
			return true
		case *ast.AssignStmt:
			if stmt.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range stmt.Lhs {
				p.checkSharedLvalue(lit, lhs)
			}
		case *ast.IncDecStmt:
			p.checkSharedLvalue(lit, stmt.X)
		}
		return true
	})
}

// checkSharedLvalue classifies one assignment target inside the closure.
func (p *Pass) checkSharedLvalue(lit *ast.FuncLit, lhs ast.Expr) {
	lhs = ast.Unparen(lhs)
	switch e := lhs.(type) {
	case *ast.Ident:
		if e.Name == "_" || !p.capturedBy(lit, e) {
			return
		}
		if p.guardedBySoleWriter(lit, e.Pos()) {
			return
		}
		p.Reportf(e.Pos(), "step closure writes captured variable %q: machine closures run concurrently on the worker pool, so the write races and commits in scheduling order; partition by machine index or move the write after the barrier", e.Name)
	case *ast.IndexExpr:
		base := rootIdent(e.X)
		if base == nil || !p.capturedBy(lit, base) {
			return
		}
		if t := p.Info.TypeOf(e.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				if p.guardedBySoleWriter(lit, e.Pos()) {
					return
				}
				p.Reportf(e.Pos(), "step closure writes captured map %q: concurrent map writes fault at runtime, and later iteration is order-randomized; collect per machine into a slice indexed by x.Machine instead", base.Name)
				return
			}
		}
		// Slice/array element write: deterministic iff the slot depends on
		// the closure's own identity (parameter or a local derived from it).
		if !p.indexLocalTo(lit, e.Index) {
			if p.guardedBySoleWriter(lit, e.Pos()) {
				return
			}
			p.Reportf(e.Pos(), "step closure writes captured slice %q at an index captured from outside the closure: every machine targets the same slot, so the last-scheduled worker wins; index by x.Machine (or a value derived inside the closure)", base.Name)
		}
	case *ast.SelectorExpr:
		base := rootIdent(e.X)
		if base == nil || !p.capturedBy(lit, base) {
			return
		}
		if p.guardedBySoleWriter(lit, e.Pos()) {
			return
		}
		p.Reportf(e.Pos(), "step closure writes field %s of captured %q: shared struct state mutated from concurrent machine closures; buffer per machine and merge at the barrier", e.Sel.Name, base.Name)
	case *ast.StarExpr:
		base := rootIdent(e.X)
		if base == nil || !p.capturedBy(lit, base) {
			return
		}
		if p.guardedBySoleWriter(lit, e.Pos()) {
			return
		}
		p.Reportf(e.Pos(), "step closure writes through captured pointer %q: the target is shared across concurrent machine closures", base.Name)
	case *ast.IndexListExpr:
		if base := rootIdent(e.X); base != nil && p.capturedBy(lit, base) && !p.guardedBySoleWriter(lit, e.Pos()) {
			p.Reportf(e.Pos(), "step closure writes captured %q", base.Name)
		}
	}
}

// capturedBy reports whether id resolves to a variable declared outside the
// function literal (a capture of the driver's scope, or package state).
func (p *Pass) capturedBy(lit *ast.FuncLit, id *ast.Ident) bool {
	obj := p.objectOf(id)
	if obj == nil {
		return false
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return false
	}
	return obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
}

// indexLocalTo reports whether the index expression depends on at least one
// identifier declared inside the literal — the per-machine partition shapes
// out[x.Machine], out[v] for a range variable, out[base+offset] with a local
// base. A constant or fully captured index targets one shared slot.
func (p *Pass) indexLocalTo(lit *ast.FuncLit, idx ast.Expr) bool {
	local := false
	ast.Inspect(idx, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || local {
			return !local
		}
		if obj := p.objectOf(id); obj != nil {
			if _, isVar := obj.(*types.Var); isVar && obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
				local = true
			}
		}
		return !local
	})
	return local
}

// guardedBySoleWriter reports whether pos sits under an if whose condition
// compares an identifier or selector rooted at a closure-local object with
// == — the single-writer gather pattern (if x.Machine == 0 { … }). One
// machine writing is sequential, hence deterministic.
func (p *Pass) guardedBySoleWriter(lit *ast.FuncLit, pos token.Pos) bool {
	guarded := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok || guarded {
			return !guarded
		}
		if ifStmt.Body.Pos() > pos || pos >= ifStmt.Body.End() {
			return true
		}
		if p.soleWriterCond(lit, ifStmt.Cond) {
			guarded = true
		}
		return !guarded
	})
	return guarded
}

// soleWriterCond recognizes equality conditions pinning the closure to one
// machine: `<closure-local expr> == <anything>` (or the symmetric form),
// possibly conjoined with && / nested in parens.
func (p *Pass) soleWriterCond(lit *ast.FuncLit, cond ast.Expr) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL:
			return p.exprRootedInside(lit, e.X) || p.exprRootedInside(lit, e.Y)
		case token.LAND:
			return p.soleWriterCond(lit, e.X) || p.soleWriterCond(lit, e.Y)
		}
	}
	return false
}

// exprRootedInside reports whether the expression's root identifier is a
// variable declared inside the literal (the Ctx parameter or a local).
func (p *Pass) exprRootedInside(lit *ast.FuncLit, e ast.Expr) bool {
	id := rootIdent(e)
	if id == nil {
		return false
	}
	obj := p.objectOf(id)
	if obj == nil {
		return false
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return false
	}
	return obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()
}

// rootIdent walks selector/index/star/paren chains to the base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			return nil
		default:
			return nil
		}
	}
}
