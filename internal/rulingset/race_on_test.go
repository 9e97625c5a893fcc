//go:build race

package rulingset

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
