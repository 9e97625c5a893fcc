package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// This file is detflow: an interprocedural taint engine over the whole
// module. The six original analyzers are intra-procedural and scoped to the
// determinism-critical packages, so a wall-clock read in a helper package
// (internal/metrics, internal/gen, …) that flows through a return value into
// a Send payload or a trace event is invisible to them. detflow closes that
// gap: it builds per-function taint summaries across every scanned package,
// propagates taint through call edges and return values to a fixpoint, and
// reports any flow that reaches a deterministic sink.
//
// Sources (nondeterministic origins):
//
//	wall clock        time.Now / time.Since / time.Until
//	global rand       package-level math/rand(/v2) draws (seeded *rand.Rand
//	                  methods are the sanctioned route and stay clean)
//	map order         values produced by ranging a map (order taint: a later
//	                  sort of the collected slice launders it)
//	select order      variables assigned inside a multi-case select
//	process identity  os.Environ / os.Getenv / os.Getpid / os.Hostname
//	pointer identity  %p, or %v / fmt.Sprint of an address-printing type
//	                  (reported by the ptrformat analyzer)
//
// Sinks (deterministic surfaces, identified by critical-package APIs):
//
//	message payloads  arguments to Send / SendOwned
//	trace events      trace.Event composite literals and field writes, and
//	                  arguments to Superstep
//	durable bytes     arguments to Encode / Persist in critical packages
//	fingerprints      arguments to Fingerprint* in critical packages
//	stats columns     Stats composite literals and field writes
//
// Two analyzers report through this engine: detflow (value/order sources)
// and ptrformat (pointer/map formatting). Findings are positioned at the
// sink, with the source position and call chain named in the message, so a
// //detlint:ok annotation suppresses at the line where the nondeterminism
// enters the deterministic surface.
//
// A call through a func-typed struct field (a name → runner table) reaches
// every function a composite literal stores in that field; a function
// literal stored there is summarized. A function literal is reported with
// the declared function enclosing it, or, outside every declared function
// (a package-level var's runner table), on its own, outermost literal
// first, so each body is reported exactly once.
//
// The analysis is deliberately object-granular and flow-insensitive inside a
// function (a tainted write to x.F taints x), which over-approximates; the
// audited-suppression mechanism is the escape hatch, as for every other
// analyzer. Functions outside the scanned pattern set have no summaries and
// are treated as taint-free, so module-wide runs (the default ./...) are the
// sound configuration.

var detflowAnalyzer = &Analyzer{
	Name:       "detflow",
	Doc:        "flag interprocedural flows from nondeterministic sources into deterministic sinks",
	ModuleWide: true,
}

var ptrformatAnalyzer = &Analyzer{
	Name:       "ptrformat",
	Doc:        "flag pointer-identity or address-bearing formatting that reaches deterministic output",
	ModuleWide: true,
}

// flowSource is one nondeterminism origin carried by a taint set.
type flowSource struct {
	analyzer string         // reporting analyzer: "detflow" or "ptrformat"
	kind     string         // human description of the origin
	order    bool           // order-only taint: sorting the carrier launders it
	pos      token.Position // module-relative position of the origin
	via      []string       // call chain from the tainted value back to the origin
}

// id identifies a source for dedup: the origin position and analyzer, not
// the (round-dependent) call chain, so the fixpoint terminates.
func (s flowSource) id() string {
	return s.analyzer + "|" + s.pos.Filename + "|" + fmt.Sprint(s.pos.Line) + "|" + fmt.Sprint(s.pos.Column) + "|" + s.kind
}

func (s flowSource) describe() string {
	d := fmt.Sprintf("%s at %s:%d", s.kind, s.pos.Filename, s.pos.Line)
	if len(s.via) > 0 {
		d += " (via " + strings.Join(s.via, " → ") + ")"
	}
	return d
}

// taintSet is the taint of one expression or variable: the intrinsic
// nondeterministic sources it may carry, plus the parameter slots of the
// enclosing function whose taint would reach it.
type taintSet struct {
	sources map[string]flowSource
	params  uint64 // bit i: parameter slot i (receiver is slot 0 of a method)
}

func (t *taintSet) empty() bool { return t == nil || (len(t.sources) == 0 && t.params == 0) }

func (t *taintSet) addSource(s flowSource) bool {
	if t.sources == nil {
		t.sources = make(map[string]flowSource)
	}
	id := s.id()
	if _, ok := t.sources[id]; ok {
		return false
	}
	t.sources[id] = s
	return true
}

// join merges other into t; keepOrder=false drops order-only sources (the
// laundering applied to sorted carriers). Reports whether t changed.
func (t *taintSet) join(other *taintSet, keepOrder bool) bool {
	if other == nil {
		return false
	}
	changed := false
	for _, s := range other.sources {
		if !keepOrder && s.order {
			continue
		}
		if t.addSource(s) {
			changed = true
		}
	}
	if other.params&^t.params != 0 {
		t.params |= other.params
		changed = true
	}
	return changed
}

// sortedSources returns the sources in deterministic position order.
func (t *taintSet) sortedSources() []flowSource {
	if t == nil {
		return nil
	}
	out := make([]flowSource, 0, len(t.sources))
	for _, s := range t.sources {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		return a.kind < b.kind
	})
	return out
}

// flowSink records that a parameter slot of a function reaches a sink.
type flowSink struct {
	desc string
	via  []string
}

// funcSummary is the audited per-function contract the engine propagates:
// what taint the function's return values carry (intrinsic sources plus
// parameter slots that flow through), and which parameter slots reach a
// deterministic sink inside it or its callees.
type funcSummary struct {
	ret        *taintSet
	sinkParams map[int][]flowSink
}

// fingerprint renders the convergence-relevant content (source ids, param
// bits, sink descs — not via chains) so the fixpoint can detect stability.
func (s *funcSummary) fingerprint() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	if s.ret != nil {
		ids := make([]string, 0, len(s.ret.sources))
		for id := range s.ret.sources {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprintf(&b, "ret:%x:%s;", s.ret.params, strings.Join(ids, ","))
	}
	slots := make([]int, 0, len(s.sinkParams))
	for i := range s.sinkParams {
		slots = append(slots, i)
	}
	sort.Ints(slots)
	for _, i := range slots {
		descs := make([]string, 0, len(s.sinkParams[i]))
		for _, sk := range s.sinkParams[i] {
			descs = append(descs, sk.desc)
		}
		sort.Strings(descs)
		fmt.Fprintf(&b, "p%d:%s;", i, strings.Join(descs, ","))
	}
	return b.String()
}

func (s *funcSummary) addSinkParam(slot int, sink flowSink) {
	if s.sinkParams == nil {
		s.sinkParams = make(map[int][]flowSink)
	}
	for _, have := range s.sinkParams[slot] {
		if have.desc == sink.desc {
			return
		}
	}
	s.sinkParams[slot] = append(s.sinkParams[slot], sink)
}

const maxViaChain = 6

// flowWorld is the module-wide state: summaries for every scanned function,
// and the findings the reporting pass produced.
type flowWorld struct {
	summaries   map[string]*funcSummary
	fieldFuncs  map[string][]callee // func-typed field, by declaration position → stored functions
	criticalPkg func(pkg *types.Package) bool
	observerPkg func(pkg *types.Package) bool
	relPos      func(token.Pos) token.Position
	findings    []Diagnostic
}

func (w *flowWorld) critical(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	return w.criticalPkg(fn.Pkg())
}

// observer reports whether fn lives in a telemetry-style observer package.
// Observer encoders (Superstep, Persist, Wire, Encode*) export advisory
// wall-clock measurements — feeding them timing data is their job, not a
// determinism leak — so they are never detflow sinks, even under
// AllCritical. The exclusion is one-directional: data flowing OUT of an
// observer into a real sink (a simulator Stats, the trace event stream)
// still carries its taint and is still reported.
func (w *flowWorld) observer(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	return w.observerPkg(fn.Pkg())
}

type flowFunc struct {
	unit  *checkedUnit
	recv  *ast.FieldList
	ftype *ast.FuncType
	body  *ast.BlockStmt
	key   string
	label string
	lit   bool // a function literal stored in a struct field: summary only
}

// litFunc is the flowFunc of a function literal, keyed by its position.
func (w *flowWorld) litFunc(u *checkedUnit, fl *ast.FuncLit, label string) flowFunc {
	return flowFunc{unit: u, ftype: fl.Type, body: fl.Body, key: "lit " + w.relPos(fl.Pos()).String(), label: label, lit: true}
}

// callee is a summarized function a call may run.
type callee struct {
	key, label string
	sig        *types.Signature
}

func staticCallee(fn *types.Func) callee {
	sig, _ := fn.Type().(*types.Signature)
	return callee{key: funcKey(fn), label: calleeLabel(fn), sig: sig}
}

// buildFlowWorld computes per-function summaries to a fixpoint over every
// scanned unit, then runs the reporting pass.
func buildFlowWorld(units []*checkedUnit, ld *loader, cfg Config) *flowWorld {
	w := &flowWorld{
		summaries:  make(map[string]*funcSummary),
		fieldFuncs: make(map[string][]callee),
		relPos:     ld.relPos,
		criticalPkg: func(pkg *types.Package) bool {
			rel, ok := ld.moduleRel(strings.TrimSuffix(pkg.Path(), "_test"))
			if !ok {
				return false
			}
			return cfg.AllCritical || criticalPkgs[rel]
		},
		observerPkg: func(pkg *types.Package) bool {
			rel, ok := ld.moduleRel(strings.TrimSuffix(pkg.Path(), "_test"))
			if !ok {
				return false
			}
			return rel == "internal/telemetry" || strings.HasSuffix(rel, "/telemetry")
		},
	}
	var fns, pkgLits []flowFunc
	for _, u := range units {
		for _, f := range u.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					// No declared function encloses a literal here: collect
					// the outermost ones, whose reports cover the nested.
					ast.Inspect(d, func(n ast.Node) bool {
						fl, ok := n.(*ast.FuncLit)
						if ok {
							pkgLits = append(pkgLits, w.litFunc(u, fl, "func literal"))
						}
						return !ok
					})
					continue
				}
				if fd.Body == nil {
					continue
				}
				obj, ok := u.info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fns = append(fns, flowFunc{unit: u, recv: fd.Recv, ftype: fd.Type, body: fd.Body, key: funcKey(obj), label: calleeLabel(obj)})
			}
			fns = w.indexFieldFuncs(fns, u, f)
		}
	}
	// Fixpoint: recompute every summary from scratch against the current
	// table until nothing changes. Taint only accumulates, so this is
	// monotone; the round cap is a backstop for pathological recursion.
	for round := 0; round < 12; round++ {
		changed := false
		for _, fn := range fns {
			ff := newFuncFlow(w, fn)
			sum := ff.summarize()
			if sum.fingerprint() != w.summaries[fn.key].fingerprint() {
				w.summaries[fn.key] = sum
				changed = true
			} else {
				w.summaries[fn.key] = sum // keep freshest via chains
			}
		}
		if !changed {
			break
		}
	}
	for _, fn := range fns {
		if !fn.lit {
			newFuncFlow(w, fn).report()
		}
	}
	for _, fn := range pkgLits {
		newFuncFlow(w, fn).report()
	}
	return w
}

// indexFieldFuncs records every function a composite literal in f stores in
// a func-typed struct field, and appends a flowFunc for each function
// literal among them.
func (w *flowWorld) indexFieldFuncs(fns []flowFunc, u *checkedUnit, f *ast.File) []flowFunc {
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || u.info.TypeOf(lit) == nil {
			return true
		}
		t := u.info.TypeOf(lit)
		for i, elt := range lit.Elts {
			var field *types.Var
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					field, _ = u.info.Uses[id].(*types.Var)
				}
				elt = kv.Value
			} else if st, ok := t.Underlying().(*types.Struct); ok && i < st.NumFields() {
				field = st.Field(i)
			}
			if field == nil || !field.IsField() {
				continue
			}
			if _, ok := field.Type().Underlying().(*types.Signature); !ok {
				continue
			}
			var c callee
			if fl, ok := ast.Unparen(elt).(*ast.FuncLit); ok {
				c.label = field.Name()
				if named, ok := t.(*types.Named); ok {
					c.label = named.Obj().Name() + "." + c.label
				}
				fn := w.litFunc(u, fl, c.label)
				c.key = fn.key
				c.sig, _ = u.info.TypeOf(fl).(*types.Signature)
				fns = append(fns, fn)
			} else if fn := calleeFunc(u.info, &ast.CallExpr{Fun: elt}); fn != nil && staticCallee(fn).sig.Recv() == nil {
				c = staticCallee(fn)
			} else {
				continue
			}
			key := w.relPos(field.Pos()).String()
			if !slices.ContainsFunc(w.fieldFuncs[key], func(have callee) bool { return have.key == c.key }) {
				w.fieldFuncs[key] = append(w.fieldFuncs[key], c)
			}
		}
		return true
	})
	return fns
}

// funcKey names a function stably across independent typechecks of the same
// package (the loader checks a package once as an import dependency and once
// as a scanned unit; the resulting objects differ but the keys match).
func funcKey(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return fn.Name()
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			recv = named.Obj().Name() + "."
		}
	}
	return pkg.Path() + "." + recv + fn.Name()
}

// funcFlow is the intra-procedural analysis of one function body: an
// object-granular, flow-insensitive taint map iterated to a local fixpoint.
type funcFlow struct {
	w         *flowWorld
	u         *checkedUnit
	body      *ast.BlockStmt
	label     string
	params    map[types.Object]int  // object → parameter slot
	results   []types.Object        // named results (for naked returns)
	laundered map[types.Object]bool // passed to sort.*/slices.*: order taint dropped
	taint     map[types.Object]*taintSet
	ret       *taintSet
	sum       *funcSummary
}

func newFuncFlow(w *flowWorld, fn flowFunc) *funcFlow {
	ff := &funcFlow{
		w:         w,
		u:         fn.unit,
		body:      fn.body,
		label:     fn.label,
		params:    make(map[types.Object]int),
		laundered: make(map[types.Object]bool),
		taint:     make(map[types.Object]*taintSet),
		ret:       &taintSet{},
		sum:       &funcSummary{ret: &taintSet{}},
	}
	slot := 0
	if fn.recv != nil {
		for _, field := range fn.recv.List {
			for _, name := range field.Names {
				if obj := fn.unit.info.Defs[name]; obj != nil {
					ff.params[obj] = 0
				}
			}
		}
		slot = 1
	}
	if fn.ftype.Params != nil {
		for _, field := range fn.ftype.Params.List {
			if len(field.Names) == 0 {
				slot++
				continue
			}
			for _, name := range field.Names {
				if obj := fn.unit.info.Defs[name]; obj != nil && slot < 64 {
					ff.params[obj] = slot
				}
				slot++
			}
		}
	}
	if fn.ftype.Results != nil {
		for _, field := range fn.ftype.Results.List {
			for _, name := range field.Names {
				if obj := fn.unit.info.Defs[name]; obj != nil {
					ff.results = append(ff.results, obj)
				}
			}
		}
	}
	ff.findLaundered()
	return ff
}

// findLaundered pre-scans for sort.X(s) / slices.SortX(s) statements: order
// taint joined into those objects is dropped, because sorting is exactly the
// sanctioned fix for map-iteration order. (Pre-scanning keeps the fixpoint
// monotone: laundering is a property of the object, not of statement order.)
func (ff *funcFlow) findLaundered() {
	ast.Inspect(ff.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(ff.u.info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if path := fn.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if obj := ff.rootObj(arg); obj != nil {
				ff.laundered[obj] = true
			}
		}
		return true
	})
}

// joinObj merges ts into the taint of obj, dropping order sources for
// laundered carriers. Reports whether anything changed.
func (ff *funcFlow) joinObj(obj types.Object, ts *taintSet) bool {
	if obj == nil || obj.Name() == "_" || ts.empty() {
		return false
	}
	have := ff.taint[obj]
	if have == nil {
		have = &taintSet{}
		ff.taint[obj] = have
	}
	return have.join(ts, !ff.laundered[obj])
}

// rootObj resolves the variable an assignment target ultimately writes
// into: x, x.F, x[i], *x, x.F[i].G all root at x. Object granularity is the
// engine's precision bound — a tainted field write taints the whole object.
func (ff *funcFlow) rootObj(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := ff.u.info.Defs[x]; obj != nil {
				return obj
			}
			return ff.u.info.Uses[x]
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := ff.u.info.Uses[id].(*types.PkgName); isPkg {
					return nil
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// summarize runs the local fixpoint and extracts the function summary.
func (ff *funcFlow) summarize() *funcSummary {
	for i := 0; i < 10; i++ {
		if !ff.walk() {
			break
		}
	}
	ff.sum.ret.join(ff.ret, true)
	for _, obj := range ff.results {
		ff.sum.ret.join(ff.taint[obj], true)
	}
	ff.collectSinks(nil)
	return ff.sum
}

// report emits diagnostics for intrinsic sources reaching sinks. It reruns
// the local fixpoint (summaries of callees are final now) and then walks the
// sinks with a reporting callback.
func (ff *funcFlow) report() {
	for i := 0; i < 10; i++ {
		if !ff.walk() {
			break
		}
	}
	ff.collectSinks(func(desc string, via []string, arg ast.Expr, ts *taintSet) {
		for _, src := range ts.sortedSources() {
			sinkDesc := desc
			if len(via) > 0 {
				sinkDesc += " (via " + strings.Join(via, " → ") + ")"
			}
			ff.w.findings = append(ff.w.findings, Diagnostic{
				Pos:      ff.w.relPos(arg.Pos()),
				Analyzer: src.analyzer,
				Message: fmt.Sprintf("value derived from %s flows into %s; make the source deterministic or annotate with //detlint:ok %s -- <reason>",
					src.describe(), sinkDesc, src.analyzer),
			})
		}
	})
}

// walk is one pass over the body: propagates taint through assignments,
// declarations, ranges, selects and returns. Reports whether any taint
// changed (the local fixpoint re-runs it until quiet).
func (ff *funcFlow) walk() bool {
	changed := false
	ast.Inspect(ff.body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			if len(stmt.Lhs) == len(stmt.Rhs) {
				for i, lhs := range stmt.Lhs {
					if ff.joinObj(ff.rootObj(lhs), ff.exprTaint(stmt.Rhs[i])) {
						changed = true
					}
				}
			} else if len(stmt.Rhs) == 1 {
				ts := ff.exprTaint(stmt.Rhs[0])
				for _, lhs := range stmt.Lhs {
					if ff.joinObj(ff.rootObj(lhs), ts) {
						changed = true
					}
				}
			}
		case *ast.ValueSpec:
			if len(stmt.Values) == len(stmt.Names) {
				for i, name := range stmt.Names {
					if ff.joinObj(ff.u.info.Defs[name], ff.exprTaint(stmt.Values[i])) {
						changed = true
					}
				}
			} else if len(stmt.Values) == 1 {
				ts := ff.exprTaint(stmt.Values[0])
				for _, name := range stmt.Names {
					if ff.joinObj(ff.u.info.Defs[name], ts) {
						changed = true
					}
				}
			}
		case *ast.RangeStmt:
			ts := &taintSet{}
			ts.join(ff.exprTaint(stmt.X), true)
			if t := ff.u.info.TypeOf(stmt.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					ts.addSource(flowSource{
						analyzer: "detflow",
						kind:     "map iteration order",
						order:    true,
						pos:      ff.w.relPos(stmt.Pos()),
					})
				}
			}
			if stmt.Key != nil && ff.joinObj(ff.rootObj(stmt.Key), ts) {
				changed = true
			}
			if stmt.Value != nil && ff.joinObj(ff.rootObj(stmt.Value), ts) {
				changed = true
			}
		case *ast.SelectStmt:
			if len(stmt.Body.List) < 2 {
				return true
			}
			for _, clause := range stmt.Body.List {
				comm, ok := clause.(*ast.CommClause)
				if !ok {
					continue
				}
				as, ok := comm.Comm.(*ast.AssignStmt)
				if !ok {
					continue
				}
				ts := &taintSet{}
				ts.addSource(flowSource{
					analyzer: "detflow",
					kind:     "multi-case select arm",
					order:    true,
					pos:      ff.w.relPos(stmt.Pos()),
				})
				for _, rhs := range as.Rhs {
					ts.join(ff.exprTaint(rhs), true)
				}
				for _, lhs := range as.Lhs {
					if ff.joinObj(ff.rootObj(lhs), ts) {
						changed = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range stmt.Results {
				if ff.ret.join(ff.exprTaint(res), true) {
					changed = true
				}
			}
		}
		return true
	})
	return changed
}

// exprTaint computes the taint of an expression against the current state.
func (ff *funcFlow) exprTaint(e ast.Expr) *taintSet {
	ts := &taintSet{}
	ff.addExprTaint(ts, e)
	return ts
}

func (ff *funcFlow) addExprTaint(ts *taintSet, e ast.Expr) {
	switch x := e.(type) {
	case nil:
	case *ast.Ident:
		obj := ff.objectOfIdent(x)
		if obj == nil {
			return
		}
		if slot, ok := ff.params[obj]; ok {
			ts.params |= 1 << uint(slot)
		}
		ts.join(ff.taint[obj], !ff.laundered[obj])
	case *ast.CallExpr:
		ff.addCallTaint(ts, x)
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := ff.u.info.Uses[id].(*types.PkgName); isPkg {
				return // qualified identifier: package-level vars are not tracked
			}
		}
		ff.addExprTaint(ts, x.X)
	case *ast.ParenExpr:
		ff.addExprTaint(ts, x.X)
	case *ast.StarExpr:
		ff.addExprTaint(ts, x.X)
	case *ast.UnaryExpr:
		ff.addExprTaint(ts, x.X)
	case *ast.BinaryExpr:
		ff.addExprTaint(ts, x.X)
		ff.addExprTaint(ts, x.Y)
	case *ast.IndexExpr:
		ff.addExprTaint(ts, x.X)
		ff.addExprTaint(ts, x.Index)
	case *ast.IndexListExpr:
		ff.addExprTaint(ts, x.X)
	case *ast.SliceExpr:
		ff.addExprTaint(ts, x.X)
	case *ast.TypeAssertExpr:
		ff.addExprTaint(ts, x.X)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				ff.addExprTaint(ts, kv.Value)
				continue
			}
			ff.addExprTaint(ts, elt)
		}
	}
}

func (ff *funcFlow) objectOfIdent(id *ast.Ident) types.Object {
	if obj := ff.u.info.Defs[id]; obj != nil {
		return obj
	}
	return ff.u.info.Uses[id]
}

// addCallTaint handles calls: conversions and builtins pass operand taint
// through; intrinsic sources inject it; summarized module functions are
// instantiated; unknown callees conservatively union receiver and argument
// taint (so taint survives strconv.FormatUint and friends).
func (ff *funcFlow) addCallTaint(ts *taintSet, call *ast.CallExpr) {
	if tv, ok := ff.u.info.Types[call.Fun]; ok && tv.IsType() {
		for _, arg := range call.Args {
			ff.addExprTaint(ts, arg)
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := ff.u.info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append", "min", "max":
				for _, arg := range call.Args {
					ff.addExprTaint(ts, arg)
				}
			}
			return
		}
	}
	fn := calleeFunc(ff.u.info, call)
	if fn != nil {
		if srcs := ff.intrinsicSources(fn, call); srcs != nil {
			for _, s := range srcs {
				ts.addSource(s)
			}
			for _, arg := range call.Args {
				ff.addExprTaint(ts, arg)
			}
			return
		}
		if sum, ok := ff.w.summaries[funcKey(fn)]; ok {
			ff.instantiate(ts, staticCallee(fn), call, sum)
			return
		}
	}
	for _, c := range ff.fieldCallees(call) {
		if sum, ok := ff.w.summaries[c.key]; ok {
			ff.instantiate(ts, c, call, sum)
		}
	}
	// Unknown callee (stdlib, external, or a function value — a field call
	// too, whose field a plain assignment may have set): assume taint flows
	// from every operand into the result.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		ff.addExprTaint(ts, sel.X)
	}
	for _, arg := range call.Args {
		ff.addExprTaint(ts, arg)
	}
}

// instantiate applies a callee summary at a call site: the callee's intrinsic
// return sources flow out (with the callee prepended to their chain), and
// parameter slots recorded in the summary pull in the taint of the matching
// call operands.
func (ff *funcFlow) instantiate(ts *taintSet, c callee, call *ast.CallExpr, sum *funcSummary) {
	if sum.ret != nil {
		for _, src := range sum.ret.sources {
			ts.addSource(prependVia(src, c.label))
		}
		for slot := 0; slot < 64; slot++ {
			if sum.ret.params&(1<<uint(slot)) == 0 {
				continue
			}
			for _, operand := range slotExprs(c.sig, call, slot) {
				ff.addExprTaint(ts, operand)
			}
		}
	}
}

func prependVia(src flowSource, label string) flowSource {
	if len(src.via) >= maxViaChain {
		return src
	}
	via := make([]string, 0, len(src.via)+1)
	via = append(via, label)
	via = append(via, src.via...)
	src.via = via
	return src
}

// fieldCallees returns what a call through a func-typed struct field may
// run (see indexFieldFuncs), or nil for any other call.
func (ff *funcFlow) fieldCallees(call *ast.CallExpr) []callee {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if v, ok := ff.u.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
			return ff.w.fieldFuncs[ff.w.relPos(v.Pos()).String()]
		}
	}
	return nil
}

// slotExprs maps a callee parameter slot to the call-site operand
// expressions: slot 0 of a method is the receiver, and a variadic slot
// covers every trailing argument.
func slotExprs(sig *types.Signature, call *ast.CallExpr, slot int) []ast.Expr {
	if sig == nil {
		return nil
	}
	if sig.Recv() != nil {
		if slot == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return []ast.Expr{sel.X}
			}
			return nil
		}
		slot--
	}
	if sig.Variadic() && slot >= sig.Params().Len()-1 {
		if last := sig.Params().Len() - 1; last < len(call.Args) {
			return call.Args[last:]
		}
		return nil
	}
	if slot < len(call.Args) {
		return []ast.Expr{call.Args[slot]}
	}
	return nil
}

// sinkReport is the callback collectSinks drives: desc names the sink, via
// is the call chain between this function and the sink, arg is the tainted
// operand, ts its taint.
type sinkReport func(desc string, via []string, arg ast.Expr, ts *taintSet)

// collectSinks walks the body for deterministic sinks. For every tainted
// operand it records parameter-borne taint in the function summary (so
// callers inherit the sink) and, when a report callback is set, emits the
// intrinsic sources as findings.
func (ff *funcFlow) collectSinks(report sinkReport) {
	handle := func(desc string, via []string, arg ast.Expr) {
		ts := ff.exprTaint(arg)
		if ts.empty() {
			return
		}
		for slot := 0; slot < 64; slot++ {
			if ts.params&(1<<uint(slot)) != 0 {
				ff.sum.addSinkParam(slot, flowSink{desc: desc, via: via})
			}
		}
		if report != nil && len(ts.sources) > 0 {
			report(desc, via, arg, ts)
		}
	}
	ast.Inspect(ff.body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			targets := ff.fieldCallees(x)
			if fn := calleeFunc(ff.u.info, x); fn != nil {
				if desc, ok := ff.sinkCallee(fn); ok {
					for _, arg := range x.Args {
						handle(desc, nil, arg)
					}
					return true
				}
				targets = []callee{staticCallee(fn)}
			}
			// Calls into functions whose parameters reach a sink.
			for _, c := range targets {
				sum, ok := ff.w.summaries[c.key]
				if !ok || len(sum.sinkParams) == 0 {
					continue
				}
				slots := make([]int, 0, len(sum.sinkParams))
				for slot := range sum.sinkParams {
					slots = append(slots, slot)
				}
				sort.Ints(slots)
				for _, slot := range slots {
					for _, sink := range sum.sinkParams[slot] {
						via := sink.via
						if len(via) < maxViaChain {
							via = append([]string{c.label}, via...)
						}
						for _, operand := range slotExprs(c.sig, x, slot) {
							handle(sink.desc, via, operand)
						}
					}
				}
			}
		case *ast.CompositeLit:
			name, fields, ok := ff.sinkStruct(ff.u.info.TypeOf(x))
			if !ok {
				return true
			}
			for i, elt := range x.Elts {
				field := ""
				value := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						field = id.Name
					}
					value = kv.Value
				} else if i < len(fields) {
					field = fields[i]
				}
				handle(fmt.Sprintf("the %s field %s", name, field), nil, value)
			}
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, lhs := range x.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				name, _, ok := ff.sinkStruct(ff.u.info.TypeOf(sel.X))
				if !ok {
					continue
				}
				handle(fmt.Sprintf("the %s field %s", name, sel.Sel.Name), nil, x.Rhs[i])
			}
		}
		return true
	})
}

// sinkCallee reports whether calling fn hands data to a deterministic
// surface: message payloads, the trace event stream, durable bytes, or
// fingerprint inputs — all identified by critical-package APIs.
func (ff *funcFlow) sinkCallee(fn *types.Func) (string, bool) {
	if !ff.w.critical(fn) || ff.w.observer(fn) {
		return "", false
	}
	switch name := fn.Name(); name {
	case "Send", "SendOwned", "SendOwnedRanges":
		return fmt.Sprintf("the %s message payload", calleeLabel(fn)), true
	case "Superstep":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return "the trace event stream", true
		}
	case "Encode", "Persist":
		return fmt.Sprintf("the durable byte stream (%s)", calleeLabel(fn)), true
	default:
		if strings.HasPrefix(name, "Fingerprint") {
			return fmt.Sprintf("the fingerprint input (%s)", calleeLabel(fn)), true
		}
	}
	return "", false
}

// sinkStruct reports whether t (possibly a pointer) is one of the
// deterministic record types — trace.Event or a simulator Stats — declared
// in a critical package. It returns the display name and field order.
func (ff *funcFlow) sinkStruct(t types.Type) (string, []string, bool) {
	if t == nil {
		return "", nil, false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", nil, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", nil, false
	}
	if name := obj.Name(); name != "Event" && name != "Stats" {
		return "", nil, false
	}
	if !ff.w.criticalPkg(obj.Pkg()) || ff.w.observerPkg(obj.Pkg()) {
		return "", nil, false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return "", nil, false
	}
	fields := make([]string, st.NumFields())
	for i := range fields {
		fields[i] = st.Field(i).Name()
	}
	return obj.Pkg().Name() + "." + obj.Name(), fields, true
}

// intrinsicSources recognizes calls that originate nondeterminism.
func (ff *funcFlow) intrinsicSources(fn *types.Func, call *ast.CallExpr) []flowSource {
	pkg := fn.Pkg()
	if pkg == nil {
		return nil
	}
	pos := ff.w.relPos(call.Pos())
	switch pkg.Path() {
	case "time":
		if wallclockFuncs[fn.Name()] {
			return []flowSource{{analyzer: "detflow", kind: fmt.Sprintf("a wall-clock read (time.%s)", fn.Name()), pos: pos}}
		}
	case "math/rand", "math/rand/v2":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && !globalrandAllowed[fn.Name()] {
			return []flowSource{{analyzer: "detflow", kind: fmt.Sprintf("the global math/rand source (rand.%s)", fn.Name()), pos: pos}}
		}
	case "os":
		switch fn.Name() {
		case "Environ", "Getenv", "Getpid", "Getppid", "Hostname":
			return []flowSource{{analyzer: "detflow", kind: fmt.Sprintf("process environment/identity (os.%s)", fn.Name()), pos: pos}}
		}
	case "fmt":
		return ff.fmtSources(fn, call, pos)
	}
	return nil
}

// fmtSources recognizes pointer-identity and address-bearing formatting:
// %p on anything, and %v / unformatted printing of a type whose fmt output
// includes a runtime address (pointers to scalars, channels, funcs,
// unsafe.Pointer — including via struct fields, slices and map keys/values).
// These are ptrformat findings: the formatted string differs between runs
// even when the value is semantically identical.
func (ff *funcFlow) fmtSources(fn *types.Func, call *ast.CallExpr, pos token.Position) []flowSource {
	var args []ast.Expr
	formatted := false
	switch fn.Name() {
	case "Sprintf", "Errorf":
		if len(call.Args) == 0 {
			return nil
		}
		formatted = true
		args = call.Args[1:]
	case "Sprint", "Sprintln":
		args = call.Args
	default:
		return nil
	}
	var srcs []flowSource
	add := func(kind string) {
		srcs = append(srcs, flowSource{analyzer: "ptrformat", kind: kind, pos: pos})
	}
	checkValueVerb := func(arg ast.Expr) {
		t := ff.u.info.TypeOf(arg)
		if t == nil {
			return
		}
		if isMapType(t) && formatsAddress(t) {
			add("map formatting with pointer-identity keys or values")
		} else if formatsAddress(t) {
			add("pointer-identity %v/Sprint formatting of " + t.String())
		}
	}
	if !formatted {
		for _, arg := range args {
			checkValueVerb(arg)
		}
		return srcs
	}
	format, ok := constStringValue(ff.u.info, call.Args[0])
	if !ok {
		// Dynamic format string: fall back to value-verb semantics.
		for _, arg := range args {
			checkValueVerb(arg)
		}
		return srcs
	}
	verbs := formatVerbs(format)
	for i, verb := range verbs {
		if i >= len(args) {
			break
		}
		switch verb {
		case 'p':
			add("pointer identity formatted with %p")
		case 'v':
			checkValueVerb(args[i])
		}
	}
	return srcs
}

func constStringValue(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// formatVerbs extracts the verb sequence of a format string, emitting one
// entry per consumed argument ('*' width/precision operands included).
func formatVerbs(format string) []rune {
	var verbs []rune
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) {
			c := rune(format[i])
			if c == '*' {
				verbs = append(verbs, '*') // consumes a width/precision operand
				i++
				continue
			}
			if strings.ContainsRune("+-# 0123456789.[]", c) {
				i++
				continue
			}
			if c != '%' {
				verbs = append(verbs, c)
			}
			break
		}
	}
	return verbs
}

func isMapType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// formatsAddress reports whether fmt's default %v rendering of t includes a
// runtime address: pointers to scalars print hex addresses, channels and
// funcs always print addresses, and the property recurses through struct
// fields, array/slice elements and map keys/values. A top-level pointer to
// a composite prints &-prefixed contents instead of an address (fmt's
// special case), but a *nested* pointer field prints its address, so the
// top-level flag is dropped on recursion. Types with a String/Error/Format/
// GoString method render themselves and are excluded.
func formatsAddress(t types.Type) bool {
	return formatsAddr(t, make(map[types.Type]bool), true)
}

func formatsAddr(t types.Type, seen map[types.Type]bool, top bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if hasFormatterMethod(t) {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		if top {
			switch u.Elem().Underlying().(type) {
			case *types.Struct, *types.Array, *types.Slice, *types.Map:
				return formatsAddr(u.Elem(), seen, false) // fmt prints &{…}
			}
		}
		return true // hex address
	case *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if formatsAddr(u.Field(i).Type(), seen, false) {
				return true
			}
		}
	case *types.Slice:
		return formatsAddr(u.Elem(), seen, false)
	case *types.Array:
		return formatsAddr(u.Elem(), seen, false)
	case *types.Map:
		return formatsAddr(u.Key(), seen, false) || formatsAddr(u.Elem(), seen, false)
	}
	return false
}

func hasFormatterMethod(t types.Type) bool {
	for _, name := range []string{"String", "Error", "Format", "GoString"} {
		if obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name); obj != nil {
			if _, ok := obj.(*types.Func); ok {
				return true
			}
		}
	}
	return false
}
