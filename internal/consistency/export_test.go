package consistency

// Test helpers exposed to the external test package, whose fixtures
// come from internal/experiments (which imports consistency).
var (
	RequireMinimalCore = requireMinimalCore
	LoadTestdataSpec   = loadTestdataSpec
)
