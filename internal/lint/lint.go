// Package lint is detlint: a static-analysis pass enforcing the repo's
// determinism invariants at compile time instead of only at test time.
//
// The headline claim of this codebase — bit-deterministic MPC ruling sets,
// proven by golden-trace comparison in CI — is only as strong as the
// simulator substrate underneath it. A single `range` over a map in a message
// path, a stray time.Now in an algorithm, or a silently dropped budget error
// can break bit-determinism on a future Go runtime without any test noticing
// until the golden trace diverges. detlint walks the module with go/parser
// and go/types (stdlib only, no external dependencies) and flags exactly
// those classes in the determinism-critical packages.
//
// Analyzers:
//
//	maporder   — `for … range` over a map, unless the loop only collects the
//	             keys into a slice that is subsequently sorted in the same
//	             function. Go map iteration order is deliberately randomized;
//	             feeding it into message or trace order is a determinism bug.
//	wallclock  — time.Now / time.Since / time.Until anywhere outside
//	             cmd/…, examples/…, internal/supervise and internal/telemetry
//	             (wall-clock reads are inherently nondeterministic;
//	             measurement belongs in the binaries, never in an algorithm,
//	             simulator or experiment table).
//	globalrand — package-level math/rand functions (rand.Intn, rand.Float64,
//	             rand.Shuffle, …) which draw from the shared, process-global
//	             source. Deterministic code must thread an explicitly seeded
//	             *rand.Rand, the way Luby/sparsify already do.
//	errdrop    — ignored error results from functions and methods defined in
//	             the determinism-critical packages (Ctx.Send variants, the
//	             budget-charging SetResident/AddResident, Step,
//	             collectives). The PR 2 exit-code bug was exactly this class.
//	             Inside critical packages it also covers the os-level
//	             durability primitives (os.Rename, File.Close, File.Sync),
//	             including deferred calls — a dropped error there forfeits
//	             the crash-durability internal/durable promises.
//	floatorder — float32/float64 accumulation inside the body of a map range:
//	             FP addition is not associative, so the randomized iteration
//	             order changes the bits of the result.
//	sharedwrite — writes to captured state inside Step/RouteStep closures,
//	             which the simulators execute concurrently on a worker pool:
//	             a captured-variable write races between machine closures and
//	             commits in scheduling order. Machine-indexed slice writes and
//	             single-writer `if x.Machine == k` guards are recognized as
//	             deterministic and stay silent.
//
// A finding is suppressible only by an annotation on the same line or the
// line directly above:
//
//	//detlint:ok <analyzer>[,<analyzer>…] -- <reason>
//
// The justification after “--” is mandatory, and an unknown analyzer name in
// an annotation is itself an error — so suppressions stay auditable and
// cannot rot silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned relative to the module root.
type Diagnostic struct {
	Pos      token.Position // Filename is module-root-relative (slash-separated)
	Analyzer string
	Message  string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Config controls one lint run.
type Config struct {
	// Dir is the directory patterns are resolved from; "" means the current
	// working directory. The module root is discovered by walking up to
	// go.mod.
	Dir string
	// Patterns are package patterns: a directory path, or a path ending in
	// "/..." for a recursive walk (testdata, vendor and hidden directories
	// are skipped by walks but may be named explicitly). Default: ./...
	Patterns []string
	// Analyzers selects a subset by name; nil means all.
	Analyzers []string
	// AllCritical treats every scanned package as determinism-critical, so
	// every analyzer applies everywhere. Used by fixture tests and the
	// -all CLI flag.
	AllCritical bool
	// SkipTests excludes _test.go files from analysis. Test files are
	// checked by default: they feed the golden traces and the correctness
	// matrix, so nondeterministic iteration there hides real signal.
	SkipTests bool
}

// Analyzer is one invariant checker. Run inspects a fully typechecked
// package and reports findings through the pass; analyzers with a nil Run
// (detflow, ptrformat) report through the module-wide taint engine instead.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
	// ModuleWide analyzers apply to every scanned package, not only the
	// determinism-critical set: their findings are anchored on critical-API
	// sinks (or byte-stream encodes), so running them everywhere is what
	// catches the helper-package flows the critical-only analyzers miss.
	ModuleWide bool
}

// Pass hands one typechecked package (or test variant of a package) to an
// analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Critical reports whether the package is determinism-critical (all
	// analyzers apply, and same-package callees count for errdrop).
	Critical bool

	analyzer         *Analyzer
	isCriticalImport func(path string) bool
	relPos           func(token.Pos) token.Position
	diags            *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.relPos(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// criticalCallee reports whether fn is defined in a determinism-critical
// package (including the package under analysis itself when it is critical),
// i.e. whether its dropped error is an errdrop finding.
func (p *Pass) criticalCallee(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	if pkg == p.Pkg {
		return p.Critical
	}
	return p.isCriticalImport(pkg.Path())
}

// Analyzers returns the full analyzer set in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		maporderAnalyzer, wallclockAnalyzer, globalrandAnalyzer, errdropAnalyzer,
		floatorderAnalyzer, sharedwriteAnalyzer,
		detflowAnalyzer, nondetencodeAnalyzer, ptrformatAnalyzer,
	}
}

// criticalPkgs are the module-relative package directories whose code must
// be bit-deterministic: the simulators, the algorithms, the derandomization
// machinery and the substrate they share. This list is the contract future
// PRs must satisfy (see README “Static analysis”).
var criticalPkgs = map[string]bool{
	"internal/mpc":       true,
	"internal/clique":    true,
	"internal/rulingset": true,
	"internal/derand":    true,
	"internal/hash":      true,
	"internal/graph":     true,
	"internal/bitset":    true,
	"internal/trace":     true,
	"internal/durable":   true,
	"internal/transport": true,
	"internal/supervise": true,
	"internal/chaos":     true,
}

// wallclockExempt reports whether the package at the module-relative path
// may read the wall clock: the binaries, where timing is the point, not a
// hazard. The bench and experiments harnesses (internal/bench,
// internal/experiments) are not exempt: every column they print is
// deterministic, and host cost is measured by cmd/perfbench.
// internal/supervise is
// exempt because failure detection is wall-clock by nature (heartbeat
// deadlines, restart backoff); its timers only decide WHEN workers run, never
// WHAT they compute, so committed outputs stay bit-deterministic.
// internal/telemetry is exempt because it is a pure observer: it measures
// wall-clock span latencies for the /metrics endpoint but exports nothing the
// deterministic core reads back (detflow still sweeps it to prove that — see
// the observer-package rule in flow.go). The transport wire layer gets no
// exemption: framing and exchange must be timing-free.
func wallclockExempt(rel string) bool {
	return rel == "internal/supervise" ||
		rel == "internal/telemetry" ||
		rel == "cmd" || strings.HasPrefix(rel, "cmd/") ||
		rel == "examples" || strings.HasPrefix(rel, "examples/")
}

// checkedUnit is one fully typechecked analysis unit, collected before any
// analyzer runs so the interprocedural taint engine can see the whole
// pattern set at once.
type checkedUnit struct {
	rel      string // module-root-relative package directory
	critical bool
	path     string
	files    []*ast.File
	pkg      *types.Package
	info     *types.Info
}

// Run executes the configured analyzers and returns the surviving findings
// (annotation-suppressed ones removed, annotation misuse added), sorted by
// position. A non-nil error means the run itself failed (parse or type
// error, bad pattern) — distinct from “findings exist”.
func Run(cfg Config) ([]Diagnostic, error) {
	diags, anns, err := analyze(cfg)
	if err != nil {
		return nil, err
	}
	diags = applySuppressions(diags, anns)
	sortDiags(diags)
	return diags, nil
}

// analyze runs the full pipeline and returns pre-suppression diagnostics
// together with the parsed annotations — the raw material both Run and the
// suppression audit work from.
func analyze(cfg Config) ([]Diagnostic, map[string][]annotation, error) {
	selected, err := selectAnalyzers(cfg.Analyzers)
	if err != nil {
		return nil, nil, err
	}
	ld, err := newLoader(cfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	dirs, err := ld.expand(cfg.Patterns)
	if err != nil {
		return nil, nil, err
	}

	// Phase 1: parse and typecheck every unit up front.
	var units []*checkedUnit
	for _, dir := range dirs {
		df, err := ld.parseDir(dir)
		if err != nil {
			return nil, nil, err
		}
		if df == nil {
			continue
		}
		for _, unit := range df.units(cfg.SkipTests) {
			pkg, info, err := ld.check(unit.path, unit.files)
			if err != nil {
				return nil, nil, err
			}
			units = append(units, &checkedUnit{
				rel:      df.rel,
				critical: cfg.AllCritical || criticalPkgs[df.rel],
				path:     unit.path,
				files:    unit.files,
				pkg:      pkg,
				info:     info,
			})
		}
	}

	var diags []Diagnostic
	anns := make(map[string][]annotation) // module-relative filename → annotations

	// Phase 2: the module-wide taint engine, when a flow analyzer is
	// selected. Its findings are anchored at sinks and attributed to the
	// analyzer each source belongs to.
	selectedNames := make(map[string]bool, len(selected))
	needFlow := false
	for _, a := range selected {
		selectedNames[a.Name] = true
		if a.Run == nil {
			needFlow = true
		}
	}
	if needFlow {
		world := buildFlowWorld(units, ld, cfg)
		for _, d := range world.findings {
			if selectedNames[d.Analyzer] {
				diags = append(diags, d)
			}
		}
	}

	// Phase 3: the per-package analyzers, plus annotation collection from
	// every scanned file — including packages no analyzer ran on — so a
	// malformed annotation can never hide anywhere in the tree.
	for _, u := range units {
		for _, a := range selected {
			if a.Run == nil || !analyzerApplies(a, u.rel, u.critical) {
				continue
			}
			pass := &Pass{
				Fset:     ld.fset,
				Files:    u.files,
				Pkg:      u.pkg,
				Info:     u.info,
				Critical: u.critical,
				analyzer: a,
				diags:    &diags,
				relPos:   ld.relPos,
				isCriticalImport: func(path string) bool {
					rel, ok := ld.moduleRel(path)
					if !ok {
						return false
					}
					return criticalPkgs[rel] || cfg.AllCritical
				},
			}
			a.Run(pass)
		}
		for _, f := range u.files {
			name := ld.relPos(f.Package).Filename
			if _, done := anns[name]; done {
				continue
			}
			fileAnns, annDiags := parseAnnotations(ld.fset, f, ld.relPos)
			anns[name] = fileAnns
			diags = append(diags, annDiags...)
		}
	}
	return diags, anns, nil
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// analyzerApplies implements the scoping rules: wallclock runs everywhere
// except the measurement-exempt packages; module-wide analyzers (their
// findings anchor on critical-API sinks) run everywhere; every other
// analyzer runs only in determinism-critical packages.
func analyzerApplies(a *Analyzer, rel string, critical bool) bool {
	if a.Name == "wallclock" {
		return !wallclockExempt(rel)
	}
	if a.ModuleWide {
		return true
	}
	return critical
}

func selectAnalyzers(names []string) ([]*Analyzer, error) {
	all := Analyzers()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q (known: %s)", n, knownAnalyzerNames())
		}
		out = append(out, a)
	}
	return out, nil
}

func knownAnalyzerNames() string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}
