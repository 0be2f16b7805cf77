package pathre

// RefParse exposes the reference parser to the external differential
// tests, which need the experiments package (an importer of pathre).
var RefParse = refParse
