//go:build race

package xmlspec

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
