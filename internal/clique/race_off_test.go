//go:build !race

package clique

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = false
