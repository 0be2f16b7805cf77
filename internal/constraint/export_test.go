package constraint

// RefParse and RefParseSet expose the reference parser to the external
// differential tests, which need the experiments package (an importer
// of constraint).
var (
	RefParse    = refParse
	RefParseSet = refParseSet
)
