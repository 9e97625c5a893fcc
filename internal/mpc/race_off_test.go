//go:build !race

package mpc

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = false
