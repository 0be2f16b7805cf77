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
// certificates, audit-log events, traces, and every /check response,
// so a hot spec can be recognized across requests, joined across
// artifacts, and used as the daemon's verdict-cache key. Real-world
// workloads are dominated by a small set of recurring schemas, which
// is what makes a canonical identity worth having. The digest is a
// 64-bit hash, so two different specifications can share one; that is
// why the verdict cache re-proves every hit's certificate against the
// requesting specification instead of trusting the key.
package digest

import (
	"sort"

	"repro/internal/constraint"
	"repro/internal/dtd"
)

// Spec fingerprints a specification. The digest is invariant under
// constraint reordering, element declaration order, and DTD
// String∘Parse round-trips, and it distinguishes specifications that
// differ in any declaration, attribute, root, or constraint (up to
// 64-bit hash collision).
func Spec(d *dtd.DTD, set *constraint.Set) string {
	var h uint64 = fnvOffset64
	for _, line := range canonicalLines(d, set) {
		for i := 0; i < len(line); i++ {
			h = (h ^ uint64(line[i])) * fnvPrime64
		}
		h = (h ^ '\n') * fnvPrime64
	}
	const digits = "0123456789abcdef"
	out := make([]byte, 0, len("spec-")+16)
	out = append(out, "spec-"...)
	for shift := 60; shift >= 0; shift -= 4 {
		out = append(out, digits[(h>>uint(shift))&0xf])
	}
	return string(out)
}

// FNV-1a (64-bit) parameters, as in hash/fnv; hashing inline spares
// the hash.Hash allocation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// canonicalLines renders the specification as sorted self-describing
// lines. Each line carries a category prefix so lines from different
// sections can never collide after sorting. Content models and
// constraints append their renderings straight into one buffer, and
// the lines are sliced out of a single string.
func canonicalLines(d *dtd.DTD, set *constraint.Set) []string {
	var buf []byte
	var ends []int
	line := func() { ends = append(ends, len(buf)) }
	buf = append(buf, "root "...)
	buf = append(buf, d.Root...)
	line()
	for _, name := range d.Names {
		e := d.Element(name)
		buf = append(buf, "element "...)
		buf = append(buf, name...)
		buf = append(buf, ' ')
		if e.Content != nil {
			buf = e.Content.AppendTo(buf)
		}
		line()
		// Attrs are sorted and de-duplicated by the dtd package, so one line
		// per attribute is already canonical.
		for _, a := range e.Attrs {
			buf = append(buf, "attr "...)
			buf = append(buf, name...)
			buf = append(buf, ' ')
			buf = append(buf, a...)
			line()
		}
	}
	for _, k := range set.Keys {
		buf = k.AppendTo(append(buf, "constraint "...))
		line()
	}
	for _, c := range set.Incls {
		buf = c.AppendTo(append(buf, "constraint "...))
		line()
	}
	text := string(buf)
	lines := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		lines[i] = text[start:end]
		start = end
	}
	sort.Strings(lines)
	return lines
}
