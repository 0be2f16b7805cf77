package ilp

// SolveVisits is Solve that also reports the solve's half visits.
func SolveVisits(s *System, opts Options) (Result, int) {
	res, sv := solve(s, opts)
	return res, sv.visits
}
