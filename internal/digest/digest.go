// Package digest computes a canonical, order-insensitive fingerprint
// of a whole XML specification (DTD + constraint set). It extends the
// line-sorted ilp.System.Digest idea one level up: the specification
// is rendered into self-describing canonical lines — root, element
// declarations with sorted attributes, one constraint per line — the
// lines are sorted, and the sorted rendering is hashed. Two
// specifications share a digest exactly when they declare the same
// element types with the same content models and attributes, the same
// root, and the same constraint *set* (in any order).
//
// The digest is the serving layer's identity key: it is stamped into
// certificates, audit-log events, benchmark-journal entries, traces,
// and every /check response, so a hot spec can be recognized across
// requests, joined across artifacts, and used as the daemon's
// verdict-cache key. Real-world workloads are dominated by a small set
// of recurring schemas, which is what makes a canonical identity worth
// having. The digest is a 64-bit hash, so two different
// specifications can share one; that is why the verdict cache re-proves
// every hit's certificate against the requesting specification instead
// of trusting the key.
package digest

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"

	"repro/internal/constraint"
	"repro/internal/dtd"
)

// Spec fingerprints a specification. The digest is invariant under
// constraint reordering, element declaration order, and DTD
// String∘Parse round-trips, and it distinguishes specifications that
// differ in any declaration, attribute, root, or constraint (up to
// 64-bit hash collision).
func Spec(d *dtd.DTD, set *constraint.Set) string {
	h := fnv.New64a()
	for _, line := range canonicalLines(d, set) {
		io.WriteString(h, line)
		io.WriteString(h, "\n")
	}
	return fmt.Sprintf("spec-%016x", h.Sum64())
}

// canonicalLines renders the specification as sorted self-describing
// lines. Each line carries a category prefix so lines from different
// sections can never collide after sorting.
func canonicalLines(d *dtd.DTD, set *constraint.Set) []string {
	var lines []string
	lines = append(lines, "root "+d.Root)
	for _, name := range d.Names {
		e := d.Element(name)
		cm := ""
		if e.Content != nil {
			cm = e.Content.String()
		}
		lines = append(lines, "element "+name+" "+cm)
		// Attrs are sorted and de-duplicated by dtd.Define, so one line
		// per attribute is already canonical.
		for _, a := range e.Attrs {
			lines = append(lines, "attr "+name+" "+a)
		}
	}
	for _, ln := range strings.Split(set.String(), "\n") {
		if ln = strings.TrimSpace(ln); ln != "" {
			lines = append(lines, "constraint "+ln)
		}
	}
	sort.Strings(lines)
	return lines
}
