package consistency

import (
	"repro/internal/constraint"
	"repro/internal/dtd"
)

// Test helpers exposed to the external test package, whose fixtures
// come from internal/experiments (which imports consistency).
var (
	RequireMinimalCore = requireMinimalCore
	LoadTestdataSpec   = loadTestdataSpec
)

// SharedChecker returns Check over one compiled form of d, which every
// call shares the way an explanation's subset checks do.
func SharedChecker(d *dtd.DTD) func(*constraint.Set, Options) (Result, error) {
	return compile(d).check
}
