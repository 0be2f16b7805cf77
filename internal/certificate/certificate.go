// Package certificate gives every definitive consistency verdict a
// portable, independently checkable piece of evidence. A Consistent
// verdict carries a witness — a cardinality vector satisfying the
// compiled (in)equalities (Theorems 3.1/3.4), a family of per-scope
// vectors (Theorem 4.3), a concrete document, or the keys-only
// DTD-satisfiability fact (Section 3.3) — and an Inconsistent verdict
// carries a refutation naming its source: a sound speclint rule, DTD
// unsatisfiability, or the infeasibility of a pinned constraint
// system. Verify re-derives the evidence by evaluation only; it never
// invokes a solver, so a certificate check cannot silently degrade
// into a second search.
package certificate

import (
	"fmt"

	"repro/internal/prover"
)

// Form discriminates the witness shapes.
type Form string

// The witness forms.
const (
	// FormVector is a named cardinality vector for the spec's exact
	// absolute or regular encoding.
	FormVector Form = "vector"
	// FormDocument is a serialized XML document conforming to D and
	// satisfying Σ.
	FormDocument Form = "document"
	// FormScopeVectors is one cardinality vector per satisfiable scope
	// of the hierarchical decomposition (Theorem 4.3).
	FormScopeVectors Form = "scope-vectors"
	// FormDTDSatisfiable records the keys-only argument of Section
	// 3.3: keys alone never conflict, so DTD satisfiability is the
	// whole proof.
	FormDTDSatisfiable Form = "dtd-satisfiable"
)

// Encoding names which compiled system a vector or refutation refers
// to.
type Encoding string

// The encodings.
const (
	EncodingAbsolute Encoding = "absolute"
	EncodingRegular  Encoding = "regular"
)

// Witness is the evidence behind a Consistent verdict.
type Witness struct {
	Form Form `json:"form"`
	// Encoding identifies the compiled system (FormVector only).
	Encoding Encoding `json:"encoding,omitempty"`
	// Vector maps system variable names to their solution values
	// (FormVector only).
	Vector map[string]int64 `json:"vector,omitempty"`
	// Document is the serialized witness tree (FormDocument only).
	Document string `json:"document,omitempty"`
	// Scopes are the per-scope solutions (FormScopeVectors only).
	Scopes []ScopeWitness `json:"scopes,omitempty"`
}

// ScopeWitness is the solution of one (chain, τ) scope problem of the
// hierarchical decomposition.
type ScopeWitness struct {
	// Key is the scope's canonical scope.ChainKey.
	Key string `json:"key"`
	// Type is τ, the scope's root type.
	Type string `json:"type"`
	// Chain lists the restricted types on the path to this scope,
	// sorted.
	Chain []string `json:"chain"`
	// Vector maps the scope encoding's variable names to values.
	Vector map[string]int64 `json:"vector"`
}

// Source discriminates where a refutation came from.
type Source string

// The refutation sources.
const (
	// SourceSpeclint is a sound static rule (tier 3) firing.
	SourceSpeclint Source = "speclint"
	// SourceDTD is plain DTD unsatisfiability.
	SourceDTD Source = "dtd"
	// SourceILP is infeasibility of the absolute/regular encoding.
	SourceILP Source = "ilp"
	// SourceScope is infeasibility of a hierarchical scope problem.
	SourceScope Source = "scope"
	// SourceProver is a rule-derivation refutation from the saturation
	// prover; the ordered rule applications are replayed by Verify.
	SourceProver Source = "prover"
)

// Refutation is the evidence behind an Inconsistent verdict. For
// SourceSpeclint the named rule is re-fired by Verify, which fully
// re-establishes the proof. For the solver-backed sources the
// certificate pins the identity of the refuted system (its Digest):
// Verify recompiles the encoding from the spec and checks the
// fingerprints agree, confirming the infeasible system really is the
// one this spec compiles to. The infeasibility itself has no compact
// checkable trace — it rests on the branch-and-bound solver's
// completeness — and the certificate says so rather than pretend
// otherwise.
type Refutation struct {
	Source Source `json:"source"`
	// Rule is the speclint rule id (SourceSpeclint only).
	Rule string `json:"rule,omitempty"`
	// Detail is a human-readable account of the refutation.
	Detail string `json:"detail,omitempty"`
	// Encoding identifies the infeasible system (SourceILP only).
	Encoding Encoding `json:"encoding,omitempty"`
	// ScopeKey is the infeasible scope's ChainKey (SourceScope only).
	ScopeKey string `json:"scope_key,omitempty"`
	// SystemDigest fingerprints the refuted base system (SourceILP and
	// SourceScope).
	SystemDigest string `json:"system_digest,omitempty"`
	// Derivation is the ordered list of rule applications ending in the
	// document-scope contradiction (SourceProver only). Verify replays
	// it step by step against the presented spec.
	Derivation []prover.Step `json:"derivation,omitempty"`
}

// Certificate is the provenance of a definitive verdict: exactly one
// of Witness and Refutation is set.
type Certificate struct {
	Witness    *Witness    `json:"witness,omitempty"`
	Refutation *Refutation `json:"refutation,omitempty"`
	// SpecDigest is the canonical digest of the specification the
	// certificate is about (internal/digest), stamped by the facade so
	// a certificate stored next to an audit log or trace names the
	// spec it proves something for. Verify re-derives
	// the digest from the presented spec and rejects a mismatch; an
	// empty digest (certificates built below the facade) skips the
	// check.
	SpecDigest string `json:"spec_digest,omitempty"`
}

// FromVector builds a witness certificate from a solution of the
// named exact encoding.
func FromVector(enc Encoding, vec map[string]int64) *Certificate {
	return &Certificate{Witness: &Witness{Form: FormVector, Encoding: enc, Vector: vec}}
}

// FromDocument builds a witness certificate from a serialized
// conforming, constraint-satisfying document.
func FromDocument(xml string) *Certificate {
	return &Certificate{Witness: &Witness{Form: FormDocument, Document: xml}}
}

// FromScopeVectors builds a witness certificate from the satisfiable
// scopes of a hierarchical decomposition. A nil or empty scope list
// yields no certificate.
func FromScopeVectors(scopes []ScopeWitness) *Certificate {
	if len(scopes) == 0 {
		return nil
	}
	return &Certificate{Witness: &Witness{Form: FormScopeVectors, Scopes: scopes}}
}

// FromDTDSatisfiable builds the keys-only witness certificate.
func FromDTDSatisfiable() *Certificate {
	return &Certificate{Witness: &Witness{Form: FormDTDSatisfiable}}
}

// FromLint builds a refutation certificate from a sound speclint
// finding.
func FromLint(rule, detail string) *Certificate {
	return &Certificate{Refutation: &Refutation{Source: SourceSpeclint, Rule: rule, Detail: detail}}
}

// FromDTDUnsat builds the DTD-unsatisfiability refutation.
func FromDTDUnsat() *Certificate {
	return &Certificate{Refutation: &Refutation{Source: SourceDTD, Detail: "no finite tree conforms to the DTD"}}
}

// FromInfeasible builds a refutation certificate pinning the
// infeasible absolute/regular system by digest.
func FromInfeasible(enc Encoding, digest, detail string) *Certificate {
	return &Certificate{Refutation: &Refutation{Source: SourceILP, Encoding: enc, SystemDigest: digest, Detail: detail}}
}

// FromProver builds a refutation certificate carrying the saturation
// prover's rule derivation. The derivation is the whole proof: Verify
// replays every step against the presented spec, so nothing here rests
// on a solver's say-so. A nil or empty derivation yields no
// certificate.
func FromProver(derivation []prover.Step, detail string) *Certificate {
	if len(derivation) == 0 {
		return nil
	}
	return &Certificate{Refutation: &Refutation{
		Source:     SourceProver,
		Detail:     detail,
		Derivation: derivation,
	}}
}

// FromScopeRefutation builds a refutation certificate pinning the
// infeasible scope problem by ChainKey and system digest.
func FromScopeRefutation(scopeKey, digest string) *Certificate {
	return &Certificate{Refutation: &Refutation{
		Source:       SourceScope,
		ScopeKey:     scopeKey,
		SystemDigest: digest,
		Detail:       "scope problem " + scopeKey + " is infeasible",
	}}
}

// Kind reports "witness", "refutation", or "none".
func (c *Certificate) Kind() string {
	switch {
	case c == nil:
		return "none"
	case c.Witness != nil:
		return "witness"
	case c.Refutation != nil:
		return "refutation"
	default:
		return "none"
	}
}

// Size is a rough payload measure, as String prints it: vector
// entries across all scopes, document bytes, or 1 for refutations and
// the DTD-satisfiability fact.
func (c *Certificate) Size() int {
	switch {
	case c == nil:
		return 0
	case c.Refutation != nil:
		if n := len(c.Refutation.Derivation); n > 0 {
			return n
		}
		return 1
	case c.Witness == nil:
		return 0
	}
	w := c.Witness
	switch w.Form {
	case FormVector:
		return len(w.Vector)
	case FormDocument:
		return len(w.Document)
	case FormScopeVectors:
		n := 0
		for _, s := range w.Scopes {
			n += len(s.Vector)
		}
		return n
	default:
		return 1
	}
}

// String summarizes the certificate in one line.
func (c *Certificate) String() string {
	switch {
	case c == nil:
		return "no certificate"
	case c.Witness != nil:
		return fmt.Sprintf("witness (%s, size %d)", c.Witness.Form, c.Size())
	case c.Refutation != nil:
		if c.Refutation.Rule != "" {
			return fmt.Sprintf("refutation (%s %s)", c.Refutation.Source, c.Refutation.Rule)
		}
		return fmt.Sprintf("refutation (%s)", c.Refutation.Source)
	default:
		return "empty certificate"
	}
}
