package certificate

import (
	"fmt"

	"repro/internal/cardinality"
	"repro/internal/constraint"
	"repro/internal/digest"
	"repro/internal/dtd"
	"repro/internal/prover"
	"repro/internal/scope"
	"repro/internal/speclint"
	"repro/internal/xmltree"
)

// Verify checks a certificate against the specification it claims to
// decide. It recompiles the relevant encodings deterministically and
// evaluates — vectors against the (in)equalities plus the support-
// connectivity condition, documents against conformance and dynamic
// constraint satisfaction, lint refutations by re-firing the named
// sound rule — and never invokes an integer solver. A nil error means
// the certificate independently establishes (or, for solver-backed
// refutations, pins the exact system behind) its verdict.
func Verify(d *dtd.DTD, set *constraint.Set, c *Certificate) error {
	var specDigest string
	if c != nil && c.SpecDigest != "" {
		specDigest = digest.Spec(d, set)
	}
	return VerifyDigested(d, set, c, specDigest)
}

// VerifyDigested is Verify for a caller that already holds the spec's
// digest.Spec(d, set), such as a memoized one: the certificate's stamp
// is compared against specDigest instead of re-digesting the spec.
// specDigest may be empty only for a certificate without a stamp.
func VerifyDigested(d *dtd.DTD, set *constraint.Set, c *Certificate, specDigest string) error {
	if c == nil {
		return fmt.Errorf("certificate: nil certificate")
	}
	if (c.Witness == nil) == (c.Refutation == nil) {
		return fmt.Errorf("certificate: exactly one of witness and refutation must be set")
	}
	if err := d.Validate(); err != nil {
		return fmt.Errorf("certificate: invalid DTD: %w", err)
	}
	if err := set.Validate(d); err != nil {
		return fmt.Errorf("certificate: invalid constraint set: %w", err)
	}
	if c.SpecDigest != "" && specDigest != c.SpecDigest {
		return fmt.Errorf("certificate: stamped for spec %s but presented spec digests to %s", c.SpecDigest, specDigest)
	}
	if c.Witness != nil {
		return verifyWitness(d, set, c.Witness)
	}
	return verifyRefutation(d, set, c.Refutation)
}

func verifyWitness(d *dtd.DTD, set *constraint.Set, w *Witness) error {
	switch w.Form {
	case FormVector:
		return verifyVector(d, set, w)
	case FormDocument:
		return verifyDocument(d, set, w.Document)
	case FormScopeVectors:
		return verifyScopeVectors(d, set, w.Scopes)
	case FormDTDSatisfiable:
		return verifyDTDSatisfiable(d, set)
	default:
		return fmt.Errorf("certificate: unknown witness form %q", w.Form)
	}
}

// verifyVector recompiles the named encoding and evaluates the vector
// against its system and connectivity condition. Only exact encodings
// can certify consistency this way; an inexact compilation is rejected
// outright (a solution would not guarantee a tree).
func verifyVector(d *dtd.DTD, set *constraint.Set, w *Witness) error {
	switch w.Encoding {
	case EncodingAbsolute:
		enc, err := cardinality.EncodeAbsolute(d, set)
		if err != nil {
			return fmt.Errorf("certificate: spec does not compile to the absolute encoding: %w", err)
		}
		if !enc.Exact {
			return fmt.Errorf("certificate: absolute encoding is inexact for this spec; a vector cannot certify consistency")
		}
		return enc.Flow.VerifyAssignment(w.Vector)
	case EncodingRegular:
		enc, err := cardinality.EncodeRegular(d, set)
		if err != nil {
			return fmt.Errorf("certificate: spec does not compile to the regular encoding: %w", err)
		}
		return enc.Flow.VerifyAssignment(w.Vector)
	default:
		return fmt.Errorf("certificate: unknown encoding %q", w.Encoding)
	}
}

// verifyDocument parses the serialized witness and runs the dynamic
// checkers: DTD conformance and constraint satisfaction.
func verifyDocument(d *dtd.DTD, set *constraint.Set, doc string) error {
	if doc == "" {
		return fmt.Errorf("certificate: empty witness document")
	}
	t, err := xmltree.ParseDocumentString(doc)
	if err != nil {
		return fmt.Errorf("certificate: witness document does not parse: %w", err)
	}
	if err := t.Conforms(d); err != nil {
		return fmt.Errorf("certificate: witness document does not conform: %w", err)
	}
	if !constraint.Satisfies(t, set) {
		return fmt.Errorf("certificate: witness document violates the constraint set")
	}
	return nil
}

// verifyDTDSatisfiable checks the keys-only argument of Section 3.3:
// with no inclusions (and no regular or relative constraints), keys
// can always be satisfied by giving every attribute a fresh value, so
// DTD satisfiability alone decides consistency.
func verifyDTDSatisfiable(d *dtd.DTD, set *constraint.Set) error {
	prof := constraint.Classify(set)
	if len(set.Incls) > 0 || prof.Regular || prof.Relative {
		return fmt.Errorf("certificate: the keys-only argument does not apply to class %s", prof.ClassName())
	}
	if !d.Satisfiable() {
		return fmt.Errorf("certificate: DTD is unsatisfiable")
	}
	return nil
}

// verifyScopeVectors re-derives the hierarchical decomposition
// (Theorem 4.3) and checks one scope at a time: each scope's vector
// must satisfy that scope's freshly recompiled system, respect every
// forced-zero type, and every exit type the vector instantiates must
// itself come with a verified scope witness — the inductive shape of
// Lemma 14, checked without solving anything.
func verifyScopeVectors(d *dtd.DTD, set *constraint.Set, scopes []ScopeWitness) error {
	prof := constraint.Classify(set)
	if !prof.Relative {
		return fmt.Errorf("certificate: scope-vector witnesses apply only to relative constraint sets, got %s", prof.ClassName())
	}
	if !scope.Hierarchical(d, set) {
		return fmt.Errorf("certificate: specification is not hierarchical; the scope decomposition does not apply")
	}
	index := map[string]*ScopeWitness{}
	for i := range scopes {
		index[scopes[i].Key] = &scopes[i]
	}
	contexts := scope.ContextTypes(d, set)
	verified := map[string]bool{}
	var verify func(chain map[string]bool, tau string, depth int) error
	verify = func(chain map[string]bool, tau string, depth int) error {
		if depth > len(scopes)+1 {
			return fmt.Errorf("certificate: scope recursion exceeds the certificate's scope count")
		}
		key := scope.ChainKey(chain, tau)
		if verified[key] {
			return nil
		}
		sw, ok := index[key]
		if !ok {
			return fmt.Errorf("certificate: no scope witness for required scope %s", key)
		}
		sd, exits := scope.DTD(d, contexts, tau)
		local, forceZero := scope.LocalSet(d, sd, set, chain, tau)
		enc, err := cardinality.EncodeAbsolute(sd, local)
		if err != nil {
			return fmt.Errorf("certificate: scope %s does not compile: %w", key, err)
		}
		if !enc.Exact {
			return fmt.Errorf("certificate: scope %s has an inexact encoding; its vector cannot certify", key)
		}
		if err := enc.Flow.VerifyAssignment(sw.Vector); err != nil {
			return fmt.Errorf("certificate: scope %s: %w", key, err)
		}
		count := func(t string) int64 {
			fn := enc.Flow.Lookup(t, 0)
			if fn < 0 {
				return 0
			}
			return sw.Vector[enc.Flow.Sys.Name(enc.Flow.Vars[fn])]
		}
		for _, t := range forceZero {
			if count(t) != 0 {
				return fmt.Errorf("certificate: scope %s instantiates %s, whose inclusion targets cannot occur in the scope", key, t)
			}
		}
		verified[key] = true
		for _, e := range exits {
			if count(e) == 0 {
				continue
			}
			sub := map[string]bool{e: true}
			for c := range chain {
				sub[c] = true
			}
			if err := verify(sub, e, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return verify(map[string]bool{d.Root: true}, d.Root, 0)
}

func verifyRefutation(d *dtd.DTD, set *constraint.Set, r *Refutation) error {
	switch r.Source {
	case SourceSpeclint:
		rep := speclint.Prepass(d, set, nil)
		for _, diag := range rep.Diags {
			if diag.Sound && diag.Severity == speclint.Error && diag.RuleID == r.Rule {
				return nil
			}
		}
		return fmt.Errorf("certificate: sound lint rule %s does not fire on this spec", r.Rule)
	case SourceDTD:
		if d.Satisfiable() {
			return fmt.Errorf("certificate: DTD is satisfiable; the refutation does not hold")
		}
		return nil
	case SourceILP:
		return verifyInfeasible(d, set, r)
	case SourceScope:
		return verifyScopeRefutation(d, set, r)
	case SourceProver:
		if err := prover.Replay(d, set, r.Derivation); err != nil {
			return fmt.Errorf("certificate: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("certificate: unknown refutation source %q", r.Source)
	}
}

// verifyInfeasible recompiles the named encoding and checks that its
// digest matches the refuted system's. This pins the refutation to
// this exact spec; the infeasibility itself is the solver's verdict
// (see Refutation).
func verifyInfeasible(d *dtd.DTD, set *constraint.Set, r *Refutation) error {
	var digest string
	switch r.Encoding {
	case EncodingAbsolute:
		enc, err := cardinality.EncodeAbsolute(d, set)
		if err != nil {
			return fmt.Errorf("certificate: spec does not compile to the absolute encoding: %w", err)
		}
		digest = enc.Flow.Sys.Digest()
	case EncodingRegular:
		enc, err := cardinality.EncodeRegular(d, set)
		if err != nil {
			return fmt.Errorf("certificate: spec does not compile to the regular encoding: %w", err)
		}
		digest = enc.Flow.Sys.Digest()
	default:
		return fmt.Errorf("certificate: unknown encoding %q", r.Encoding)
	}
	if digest != r.SystemDigest {
		return fmt.Errorf("certificate: refuted system digest %s does not match recompiled %s", r.SystemDigest, digest)
	}
	return nil
}

// verifyScopeRefutation re-derives the named scope problem and checks
// its base-system digest against the certificate's.
func verifyScopeRefutation(d *dtd.DTD, set *constraint.Set, r *Refutation) error {
	if !scope.Hierarchical(d, set) {
		return fmt.Errorf("certificate: specification is not hierarchical; the scope decomposition does not apply")
	}
	chain, tau, err := parseChainKey(r.ScopeKey)
	if err != nil {
		return err
	}
	contexts := scope.ContextTypes(d, set)
	sd, _ := scope.DTD(d, contexts, tau)
	local, _ := scope.LocalSet(d, sd, set, chain, tau)
	enc, err := cardinality.EncodeAbsolute(sd, local)
	if err != nil {
		return fmt.Errorf("certificate: scope %s does not compile: %w", r.ScopeKey, err)
	}
	if digest := enc.Flow.Sys.Digest(); digest != r.SystemDigest {
		return fmt.Errorf("certificate: scope %s digest %s does not match recompiled %s", r.ScopeKey, r.SystemDigest, digest)
	}
	return nil
}

// parseChainKey inverts scope.ChainKey.
func parseChainKey(key string) (map[string]bool, string, error) {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] != '|' {
			continue
		}
		chain := map[string]bool{}
		start := 0
		part := key[:i]
		for j := 0; j <= len(part); j++ {
			if j == len(part) || part[j] == ',' {
				if j > start {
					chain[part[start:j]] = true
				}
				start = j + 1
			}
		}
		if len(chain) == 0 {
			return nil, "", fmt.Errorf("certificate: scope key %q has an empty chain", key)
		}
		return chain, key[i+1:], nil
	}
	return nil, "", fmt.Errorf("certificate: malformed scope key %q", key)
}
