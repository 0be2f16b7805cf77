// Command xmlconsist statically checks the consistency of an XML
// specification: given a DTD and a set of key/foreign-key constraints,
// it decides whether any document can conform to both, printing the
// verdict, the detected constraint dialect, the decision procedure
// used, and (for consistent specifications) a sample witness document.
//
// Usage:
//
//	xmlconsist -dtd schema.dtd -constraints keys.txt [-witness] [-min-witness]
//	           [-explain] [-attribution] [-implies "c.z ⊆ a.x"]
//	           [-trace-out trace.json]
//
// Machine-readable side channels never share stdout with the human
// report: -metrics writes JSON lines to stderr and -trace-out writes a
// Perfetto-loadable Chrome trace (or JSONL for .jsonl paths) to its
// file.
//
// Exit status: 0 consistent, 1 inconsistent, 2 unknown, 3 usage or
// specification errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	xmlspec "repro"
	"repro/internal/cliutil"
	"repro/internal/prover"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// printDerivation renders the prover's rule derivation and the ranked
// repair hints of an explanation (text mode).
func printDerivation(stdout io.Writer, spec *xmlspec.Spec, ex *xmlspec.Explanation) {
	if len(ex.Derivation) > 0 {
		fmt.Fprintf(stdout, "rule derivation (%d steps, replayable):\n", len(ex.Derivation))
		for i, st := range ex.Derivation {
			fmt.Fprintf(stdout, "  %3d. [%s] %s", i+1, st.Rule, st.Fact.String())
			if len(st.Premises) > 0 {
				fmt.Fprint(stdout, "  from")
				for _, p := range st.Premises {
					fmt.Fprintf(stdout, " %d", p+1)
				}
			}
			for _, c := range st.Constraints {
				fmt.Fprintf(stdout, "  {%s}", spec.ConstraintAt(c))
			}
			fmt.Fprintln(stdout)
		}
	}
	if len(ex.Hints) > 0 {
		fmt.Fprintf(stdout, "repair hints (ranked over %d cores):\n", ex.Cores)
		for _, h := range ex.Hints {
			fmt.Fprintf(stdout, "   %s %s  (in %d/%d cores)\n", h.Action, h.Rendered, h.Cores, ex.Cores)
		}
	}
}

// printAttribution renders the per-scope cost rows and their
// per-family aggregate as text tables, most expensive first, with each
// row's share of the attributed wall time.
func printAttribution(stdout io.Writer, rows []xmlspec.ScopeCost) {
	if len(rows) == 0 {
		fmt.Fprintln(stdout, "cost attribution: no scope subproblems ran (the check was settled before the solver)")
		return
	}
	total := int64(0)
	for _, r := range rows {
		total += r.ElapsedUS
	}
	fmt.Fprintf(stdout, "cost attribution (%d scopes, %d µs attributed):\n", len(rows), total)
	fmt.Fprintf(stdout, "  %-32s %-8s %8s %6s %9s %7s %7s %7s %6s\n",
		"scope", "verdict", "µs", "share", "allocs", "nodes", "pivots", "branch", "cuts")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = float64(r.ElapsedUS) / float64(total)
		}
		key := r.Key
		if len(key) > 32 {
			key = key[:29] + "..."
		}
		fmt.Fprintf(stdout, "  %-32s %-8s %8d %5.1f%% %9d %7d %7d %7d %6d\n",
			key, r.Verdict, r.ElapsedUS, 100*share, r.Allocs, r.Nodes, r.Pivots, r.Branches, r.Cuts)
	}
	fams := xmlspec.CostByFamily(rows)
	fmt.Fprintln(stdout, "by constraint family:")
	fmt.Fprintf(stdout, "  %-24s %6s %8s %7s %7s\n", "family", "scopes", "µs", "nodes", "pivots")
	for _, f := range fams {
		fmt.Fprintf(stdout, "  %-24s %6d %8d %7d %7d\n", f.Family, f.Scopes, f.ElapsedUS, f.Nodes, f.Pivots)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xmlconsist", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dtdPath     = fs.String("dtd", "", "path to the DTD file (required)")
		consPath    = fs.String("constraints", "", "path to the constraints file (one per line; optional)")
		witness     = fs.Bool("witness", false, "print a witness document when consistent")
		minWitness  = fs.Bool("min-witness", false, "shrink the witness to the fewest elements (slower)")
		explain     = fs.Bool("explain", false, "on inconsistency, print a minimal conflicting constraint subset")
		attribution = fs.Bool("attribution", false, "print the per-scope cost table: time, allocations, and solver effort per scope subproblem and constraint family")
		implies     = fs.String("implies", "", "also check whether the specification implies this constraint")
		searchNodes = fs.Int("search-nodes", 6, "node bound for the fallback search on undecidable dialects")
		maxNodes    = fs.Int("solver-nodes", 0, "integer-solver node budget (0 = default)")
		jsonOut     = fs.Bool("json", false, "emit a single JSON object instead of text")
		sample      = fs.Int("sample", 0, "additionally generate N random valid documents (text mode only)")
		sampleNodes = fs.Int("sample-nodes", 30, "soft element bound per sampled document")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file")
	)
	ob := cliutil.RegisterObs(fs, "xmlconsist", "the check")
	if err := fs.Parse(args); err != nil {
		return 3
	}
	if ob.HandleVersion(stdout) {
		return 0
	}
	if err := ob.Init(*explain); err != nil {
		fmt.Fprintln(stderr, "xmlconsist:", err)
		return 3
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "xmlconsist:", err)
			return 3
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "xmlconsist:", err)
			return 3
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "xmlconsist:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "xmlconsist:", err)
			}
		}()
	}
	if *dtdPath == "" {
		fmt.Fprintln(stderr, "xmlconsist: -dtd is required")
		fs.Usage()
		return 3
	}
	dtdSrc, err := os.ReadFile(*dtdPath)
	if err != nil {
		fmt.Fprintln(stderr, "xmlconsist:", err)
		return 3
	}
	var consSrc []byte
	if *consPath != "" {
		consSrc, err = os.ReadFile(*consPath)
		if err != nil {
			fmt.Fprintln(stderr, "xmlconsist:", err)
			return 3
		}
	}
	spec, err := xmlspec.Parse(string(dtdSrc), string(consSrc))
	if err != nil {
		fmt.Fprintln(stderr, "xmlconsist:", err)
		return 3
	}
	rec := ob.Recorder
	if rec != nil {
		spec.SetObserver(rec)
	}

	if !*jsonOut {
		fmt.Fprintf(stdout, "class:  %s\n", spec.Class())
		if pairs := spec.ConflictingPairs(); len(pairs) > 0 {
			fmt.Fprintln(stdout, "non-hierarchical: conflicting scope pairs:")
			for _, p := range pairs {
				fmt.Fprintln(stdout, "  ", p)
			}
		}
	}
	checkOpts := xmlspec.Options{
		SkipWitness:     !*witness,
		MinimizeWitness: *minWitness,
		SearchNodes:     *searchNodes,
		MaxSolverNodes:  *maxNodes,
		Explain:         *explain,
		// Allocation tracking is fine here: a batch CLI accepts the two
		// ReadMemStats stop-the-worlds per scope that a daemon cannot.
		Attribution:       *attribution,
		AttributionAllocs: *attribution,
	}
	if *cpuprofile != "" {
		// Label the check so the profile attributes its samples to the
		// spec and pipeline phases (go tool pprof -tagfocus digest=…,
		// or -tagfocus phase=ilp to isolate the solver).
		checkOpts.ProfileLabel = spec.Digest()
	}
	res, err := spec.Consistent(&checkOpts)
	if err != nil {
		fmt.Fprintln(stderr, "xmlconsist:", err)
		return 3
	}
	var core []string
	var explanation *xmlspec.Explanation
	if *explain && res.Verdict == xmlspec.Inconsistent {
		ex, err := spec.Explain(&checkOpts)
		if err != nil {
			fmt.Fprintln(stderr, "xmlconsist:", err)
			return 3
		}
		explanation = &ex
		core = ex.CoreConstraints
		if len(core) == 0 {
			core = []string{"the DTD alone admits no finite document"}
		}
	}
	var lint []string
	if *explain {
		for _, f := range spec.Lint() {
			lint = append(lint, f.String())
		}
	}
	var impliesRes *xmlspec.ImplicationResult
	if *implies != "" {
		ir, err := spec.Implies(*implies)
		if err != nil {
			fmt.Fprintln(stderr, "xmlconsist:", err)
			return 3
		}
		impliesRes = &ir
	}

	if *jsonOut {
		type report struct {
			Class            string               `json:"class"`
			Method           string               `json:"method"`
			Verdict          string               `json:"verdict"`
			Diagnosis        string               `json:"diagnosis,omitempty"`
			Witness          string               `json:"witness,omitempty"`
			ConflictingPairs []string             `json:"conflictingPairs,omitempty"`
			MinimalCore      []string             `json:"minimalCore,omitempty"`
			CoreIndices      []int                `json:"coreIndices,omitempty"`
			Derivation       []prover.Step        `json:"derivation,omitempty"`
			RepairHints      []xmlspec.RepairHint `json:"repairHints,omitempty"`
			Cores            int                  `json:"cores,omitempty"`
			Lint             []string             `json:"lint,omitempty"`
			Implies          string               `json:"implies,omitempty"`
			ImpliesVerdict   string               `json:"impliesVerdict,omitempty"`
			Counterexample   string               `json:"counterexample,omitempty"`
			SolverNodes      int                  `json:"solverNodes"`
			Attribution      []xmlspec.ScopeCost  `json:"attribution,omitempty"`
			FamilyCosts      []xmlspec.FamilyCost `json:"familyCosts,omitempty"`
		}
		rep := report{
			Class:            spec.Class(),
			Method:           res.Method,
			Verdict:          res.Verdict.String(),
			Diagnosis:        res.Diagnosis,
			Witness:          res.Witness,
			ConflictingPairs: spec.ConflictingPairs(),
			MinimalCore:      core,
			Lint:             lint,
			SolverNodes:      res.Stats.SolverNodes,
		}
		if *attribution {
			rep.Attribution = res.Attribution
			rep.FamilyCosts = xmlspec.CostByFamily(res.Attribution)
		}
		if explanation != nil {
			rep.CoreIndices = explanation.Core
			rep.Derivation = explanation.Derivation
			rep.RepairHints = explanation.Hints
			rep.Cores = explanation.Cores
		}
		if impliesRes != nil {
			rep.Implies = *implies
			rep.ImpliesVerdict = impliesRes.Verdict.String()
			rep.Counterexample = impliesRes.Counterexample
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "xmlconsist:", err)
			return 3
		}
	} else {
		fmt.Fprintf(stdout, "method: %s\n", res.Method)
		fmt.Fprintf(stdout, "verdict: %s\n", res.Verdict)
		if res.Diagnosis != "" {
			fmt.Fprintf(stdout, "note:   %s\n", res.Diagnosis)
		}
		if *witness && res.Witness != "" {
			fmt.Fprintln(stdout, "witness document:")
			fmt.Fprint(stdout, res.Witness)
		}
		if *explain && res.Verdict == xmlspec.Inconsistent {
			fmt.Fprintln(stdout, "minimal conflicting subset:")
			for _, line := range core {
				fmt.Fprintln(stdout, "  ", line)
			}
			if explanation != nil {
				printDerivation(stdout, spec, explanation)
			}
		}
		if *explain && len(lint) > 0 {
			fmt.Fprintln(stdout, "lint findings:")
			for _, line := range lint {
				fmt.Fprintln(stdout, "  ", line)
			}
		}
		if *explain {
			fmt.Fprintf(stdout, "deciding phase: %s\n", res.Method)
			fmt.Fprintln(stdout, "trace:")
			if err := rec.WriteTree(stdout); err != nil {
				fmt.Fprintln(stderr, "xmlconsist:", err)
				return 3
			}
		}
		if impliesRes != nil {
			fmt.Fprintf(stdout, "implies %q: %s\n", *implies, impliesRes.Verdict)
			if impliesRes.Counterexample != "" {
				fmt.Fprintln(stdout, "counterexample document:")
				fmt.Fprint(stdout, impliesRes.Counterexample)
			}
		}
		if *attribution {
			printAttribution(stdout, res.Attribution)
		}
	}

	if *sample > 0 && !*jsonOut {
		docs, err := spec.Sample(*sample, &xmlspec.SampleOptions{MaxNodes: *sampleNodes})
		if err != nil {
			fmt.Fprintln(stderr, "xmlconsist:", err)
			return 3
		}
		for i, doc := range docs {
			fmt.Fprintf(stdout, "sample document %d:\n", i+1)
			fmt.Fprint(stdout, doc)
		}
	}

	if err := ob.Finish(stderr); err != nil {
		fmt.Fprintln(stderr, "xmlconsist:", err)
		return 3
	}

	switch res.Verdict {
	case xmlspec.Consistent:
		return 0
	case xmlspec.Inconsistent:
		return 1
	default:
		return 2
	}
}
