package consistency

import (
	"runtime"
	"time"

	"repro/internal/constraint"
	"repro/internal/ilp"
	"repro/internal/introspect"
	"repro/internal/obs"
)

// recordCost attaches one solved subproblem's cost row to its span
// (introspect.Record). start is markAllocs at the subproblem's start.
// Without a recorder there is no span and the call is one nil check.
func recordCost(sp *obs.Span, opts Options, start allocMark, key, tau string, verdict ilp.Verdict, st ilp.Stats, cuts int, set *constraint.Set) {
	if sp == nil || opts.explaining {
		return
	}
	sc := introspect.ScopeCost{
		Key:          key,
		Type:         tau,
		Verdict:      verdict.String(),
		Nodes:        st.Nodes,
		LPCalls:      st.LPCalls,
		Pivots:       st.Pivots,
		Branches:     st.Branches,
		Propagations: st.PropPasses,
		Cuts:         cuts,
	}
	if opts.Ledger.TracksAllocs() {
		end := markAllocs(opts)
		sc.Allocs = end.mallocs - start.mallocs
		sc.AllocReadUS = (start.read + end.read).Microseconds()
	}
	introspect.Record(sp, sc, families(set))
}

// allocMark is the heap-allocation counter at one point of a check,
// and how long reading it took.
type allocMark struct {
	mallocs uint64
	read    time.Duration
}

// markAllocs reads the heap-allocation counter when the check records
// rows with allocation deltas, and is the zero mark otherwise:
// runtime.ReadMemStats briefly stops the world, which time-only
// attribution should not pay. The read is timed, and a row leaves the
// time of its two reads out of its self time. runtime/metrics would
// read without stopping the world, but it counts small objects only as
// each processor retires its cached span of a size class, so the delta
// of one subproblem is mostly noise (a Figure 4 hierarchical scope
// that allocates 96 objects reads 0).
func markAllocs(opts Options) allocMark {
	if !opts.Obs.Enabled() || !opts.Ledger.TracksAllocs() {
		return allocMark{}
	}
	t0 := time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMark{ms.Mallocs, time.Since(t0)}
}

// checkRows derives the cost rows of the check rooted at the span root
// from the recorder's spans. Only root's subtree counts, so a recorder
// reused across checks gives each check its own rows.
func checkRows(rec *obs.Recorder, root *obs.Span) []introspect.ScopeCost {
	spans := rec.Spans()
	for i, s := range spans {
		if s.SpanID != root.SpanID() {
			continue
		}
		end := i + 1
		for end < len(spans) && obs.Under(spans[end].Path, s.Path) {
			end++
		}
		return introspect.Rows(spans[i:end])
	}
	return nil
}

// families classifies a constraint set into the families the cost
// tables aggregate by: absolute vs relative keys and foreign keys,
// regular-path constraints, multi-attribute targets.
func families(set *constraint.Set) introspect.Family {
	if set == nil {
		return 0
	}
	var f introspect.Family
	for _, k := range set.Keys {
		switch {
		case k.Target.Path != nil:
			f |= introspect.FamilyRegular
		case k.Context != "":
			f |= introspect.FamilyRelativeKey
		default:
			f |= introspect.FamilyKey
		}
		if len(k.Target.Attrs) > 1 {
			f |= introspect.FamilyMultiAttribute
		}
	}
	for _, c := range set.Incls {
		switch {
		case c.From.Path != nil || c.To.Path != nil:
			f |= introspect.FamilyRegular
		case c.Context != "":
			f |= introspect.FamilyRelativeForeignKey
		default:
			f |= introspect.FamilyForeignKey
		}
		if len(c.From.Attrs) > 1 || len(c.To.Attrs) > 1 {
			f |= introspect.FamilyMultiAttribute
		}
	}
	return f
}
