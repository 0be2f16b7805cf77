package introspect

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/obs"
)

// ScopeCost is one cost row: what a single solved
// subproblem — a hierarchical scope, or the whole document on the
// non-relative routes — cost, and what it contributed to the verdict.
type ScopeCost struct {
	// Key identifies the subproblem: a scope chain key on the relative
	// route ("{library}|book"), "document" elsewhere.
	Key string `json:"key"`
	// Type is the scope's root element type.
	Type string `json:"type,omitempty"`
	// Verdict is the subproblem's solver outcome ("sat", "unsat",
	// "unknown") — its contribution to the overall verdict.
	Verdict string `json:"verdict,omitempty"`
	// ElapsedUS is the subproblem span's self time: its wall time less
	// that of the subproblems recorded directly under it (a scope's
	// exits), so rows never count a microsecond twice.
	ElapsedUS int64 `json:"elapsed_us"`
	// Allocs is the number of heap allocations during the subproblem
	// (0 when allocation tracking was off).
	Allocs uint64 `json:"allocs,omitempty"`
	// AllocReadUS is the part of the span's wall time spent reading
	// the allocation counter for Allocs, which ElapsedUS leaves out.
	AllocReadUS int64 `json:"-"`
	// Nodes, LPCalls, Pivots, Branches, Propagations are the solver
	// effort spent on this subproblem; Cuts the connectivity cutting
	// planes it needed.
	Nodes        int `json:"nodes"`
	LPCalls      int `json:"lp_calls,omitempty"`
	Pivots       int `json:"pivots,omitempty"`
	Branches     int `json:"branches,omitempty"`
	Propagations int `json:"propagations,omitempty"`
	Cuts         int `json:"cuts,omitempty"`
	// Families tags the constraint families present in the
	// subproblem's local constraint set (sorted): "key",
	// "relative-key", "foreign-key", "relative-foreign-key",
	// "regular", "multi-attribute".
	Families []string `json:"families,omitempty"`
}

// FamilyCost aggregates cost rows by constraint family. A row with
// several families contributes to each (costs are attributed, not
// partitioned), and a row with none lands under "(unconstrained)".
type FamilyCost struct {
	Family    string `json:"family"`
	Scopes    int    `json:"scopes"`
	ElapsedUS int64  `json:"elapsed_us"`
	Nodes     int    `json:"nodes"`
	Pivots    int    `json:"pivots"`
}

// Family is a set of constraint families as a bitmask, the form a
// subproblem's span carries them in. The bits follow the names'
// sorted order, so Names lists them sorted.
type Family uint8

// The constraint families of a subproblem's local constraint set.
const (
	FamilyForeignKey Family = 1 << iota
	FamilyKey
	FamilyMultiAttribute
	FamilyRegular
	FamilyRelativeForeignKey
	FamilyRelativeKey
)

var familyNames = [...]string{"foreign-key", "key", "multi-attribute", "regular", "relative-foreign-key", "relative-key"}

// Names lists the families in f, sorted; nil when f is empty.
func (f Family) Names() []string {
	if f == 0 {
		return nil
	}
	out := make([]string, 0, bits.OnesCount8(uint8(f)))
	for i, name := range familyNames {
		if f&(1<<i) != 0 {
			out = append(out, name)
		}
	}
	return out
}

// Ledger is a check's request for cost rows, not a collector: the rows
// are derived from the check's spans (see Rows). A nil *Ledger asks
// for none.
type Ledger struct {
	allocs bool
}

// NewLedger returns a request for rows carrying time and solver
// effort; call TrackAllocs to also pay for per-row heap allocation
// deltas.
func NewLedger() *Ledger { return &Ledger{} }

// TrackAllocs asks for ScopeCost.Allocs. It costs two
// runtime.ReadMemStats calls (each a brief stop-the-world) per row,
// which batch tools accept and a serving hot path should not; the
// default is off. A row's ElapsedUS leaves its reads out. It returns l
// for chaining.
func (l *Ledger) TrackAllocs() *Ledger {
	if l != nil {
		l.allocs = true
	}
	return l
}

// TracksAllocs reports whether allocation deltas were requested.
func (l *Ledger) TracksAllocs() bool { return l != nil && l.allocs }

// Enabled reports whether rows were requested.
func (l *Ledger) Enabled() bool { return l != nil }

// Record attaches one solved subproblem's cost to its span, in a
// single append: the span is the only per-subproblem record, and Rows
// reads it back. Zero counts are left off, as they read back as zero.
// A row's time is its span's self time and fam carries its families,
// so sc.ElapsedUS and sc.Families are not read. A nil span records
// nothing.
func Record(sp *obs.Span, sc ScopeCost, fam Family) {
	if sp == nil {
		return
	}
	attrs := [12]obs.Attr{{Key: "key", Str: sc.Key}, {Key: "type", Str: sc.Type}, {Key: "verdict", Str: sc.Verdict}}
	n := 3
	for _, c := range [...]struct {
		key string
		v   int64
	}{
		{"nodes", int64(sc.Nodes)},
		{"lp_calls", int64(sc.LPCalls)},
		{"pivots", int64(sc.Pivots)},
		{"branches", int64(sc.Branches)},
		{"propagations", int64(sc.Propagations)},
		{"cuts", int64(sc.Cuts)},
		{"families", int64(fam)},
		{"allocs", int64(sc.Allocs)},
		{"alloc_read_us", sc.AllocReadUS},
	} {
		if c.v != 0 {
			attrs[n] = obs.Attr{Key: c.key, Int: c.v, IsInt: true}
			n++
		}
	}
	sp.SetAttrs(attrs[:n]...)
}

// Rows derives the cost rows from spans in pre-order, as
// obs.Recorder.Spans returns them: one row per span that Record
// annotated, with the span's self time as ElapsedUS. Rows are sorted by
// descending elapsed time, ties by key, the order a cost table reads
// best in.
func Rows(spans []obs.SpanInfo) []ScopeCost {
	var rows []ScopeCost
	// open holds the recorded spans enclosing the current one,
	// innermost last, with the index of each one's row.
	type frame struct {
		path string
		row  int
	}
	var buf [8]frame
	open := buf[:0]
	for _, sp := range spans {
		sc, ok := rowOf(sp)
		if !ok {
			continue
		}
		for len(open) > 0 && !obs.Under(sp.Path, open[len(open)-1].path) {
			open = open[:len(open)-1]
		}
		if n := len(open); n > 0 && sp.Path[len(open[n-1].path)+1:] == sp.Name {
			rows[open[n-1].row].ElapsedUS -= sp.DurationUS
		}
		open = append(open, frame{sp.Path, len(rows)})
		rows = append(rows, sc)
	}
	slices.SortStableFunc(rows, func(a, b ScopeCost) int {
		if a.ElapsedUS != b.ElapsedUS {
			return cmp.Compare(b.ElapsedUS, a.ElapsedUS)
		}
		return strings.Compare(a.Key, b.Key)
	})
	return rows
}

// rowOf reads the row Record attached to a span; ok is false for spans
// it never annotated.
func rowOf(sp obs.SpanInfo) (sc ScopeCost, ok bool) {
	for _, a := range sp.Attrs {
		switch a.Key {
		case "key":
			sc.Key, ok = a.Str, true
		case "type":
			sc.Type = a.Str
		case "verdict":
			sc.Verdict = a.Str
		case "nodes":
			sc.Nodes = int(a.Int)
		case "lp_calls":
			sc.LPCalls = int(a.Int)
		case "pivots":
			sc.Pivots = int(a.Int)
		case "branches":
			sc.Branches = int(a.Int)
		case "propagations":
			sc.Propagations = int(a.Int)
		case "cuts":
			sc.Cuts = int(a.Int)
		case "families":
			sc.Families = Family(a.Int).Names()
		case "allocs":
			sc.Allocs = uint64(a.Int)
		case "alloc_read_us":
			sc.AllocReadUS = a.Int
		}
	}
	sc.ElapsedUS = sp.DurationUS - sc.AllocReadUS
	return sc, ok
}

// ByFamily aggregates rows per constraint family, sorted by
// descending elapsed time (ties by family name).
func ByFamily(rows []ScopeCost) []FamilyCost {
	agg := map[string]*FamilyCost{}
	bump := func(fam string, r ScopeCost) {
		fc := agg[fam]
		if fc == nil {
			fc = &FamilyCost{Family: fam}
			agg[fam] = fc
		}
		fc.Scopes++
		fc.ElapsedUS += r.ElapsedUS
		fc.Nodes += r.Nodes
		fc.Pivots += r.Pivots
	}
	for _, r := range rows {
		if len(r.Families) == 0 {
			bump("(unconstrained)", r)
			continue
		}
		for _, f := range r.Families {
			bump(f, r)
		}
	}
	out := make([]FamilyCost, 0, len(agg))
	for _, fc := range agg {
		out = append(out, *fc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ElapsedUS != out[j].ElapsedUS {
			return out[i].ElapsedUS > out[j].ElapsedUS
		}
		return out[i].Family < out[j].Family
	})
	return out
}
