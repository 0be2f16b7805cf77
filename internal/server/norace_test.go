//go:build !race

package server

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = false
