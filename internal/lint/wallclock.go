package lint

import "go/types"

// wallclock forbids wall-clock reads outside the measurement harness.
// Simulator supersteps, algorithms and trace events must be pure functions
// of (input, options, fault plan); a time.Now anywhere in that path is
// nondeterminism by construction. Timing belongs in cmd/…, where wall time
// is the measured quantity.
var wallclockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc:  "forbid time.Now/Since/Until outside cmd/",
	Run:  runWallclock,
}

var wallclockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runWallclock(p *Pass) {
	// Info.Uses iteration order is irrelevant: the driver sorts diagnostics.
	for id, obj := range p.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallclockFuncs[fn.Name()] {
			continue
		}
		p.Reportf(id.Pos(), "time.%s reads the wall clock; deterministic packages must not (measurement belongs in cmd/)", fn.Name())
	}
}
