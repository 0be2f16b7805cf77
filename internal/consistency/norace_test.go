//go:build !race

package consistency_test

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = false
