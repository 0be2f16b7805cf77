package dtd

// RefParseWithRoot exposes the reference parser to the external
// differential tests, which need the experiments package (an importer
// of dtd).
var RefParseWithRoot = refParseWithRoot
