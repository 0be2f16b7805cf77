package server

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"sync"

	xmlspec "repro"
	"repro/internal/certificate"
)

// cacheBudget bounds the bytes the verdict cache stores: room for a
// few hundred hard-instance verdicts, each a compact certificate plus
// the response strings.
const cacheBudget = 4 << 20

// The verdict cache's counters.
const (
	cacheHits           = "server.cache.hits"
	cacheMisses         = "server.cache.misses"
	cacheAdmits         = "server.cache.admits"
	cacheEvictions      = "server.cache.evictions"
	cacheVerifyFailures = "server.cache.verify_failures"
)

// seenCapacity is how many key fingerprints the admission filter
// remembers: several times the entries a full cache of hard-instance
// verdicts holds, so a working set that fits the budget is admitted on
// its second sighting unless more than seenCapacity other keys were
// sighted in between.
const seenCapacity = 8192

// entryOverhead approximates the bytes an entry costs beyond its
// strings and certificate: the entry struct, its map slot, and its LRU
// list element.
const entryOverhead = 320

// cacheKey identifies a cached verdict: the spec digest and every
// decision option that can change the verdict or the response body.
type cacheKey struct {
	digest          string
	maxSolverNodes  int
	maxValue        int64
	skipWitness     bool
	minimizeWitness bool
	skipLint        bool
}

// fingerprint hashes the key to 64 bits (FNV-1a) for the admission
// filter. It does not allocate.
func (k cacheKey) fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.digest); i++ {
		h = (h ^ uint64(k.digest[i])) * prime
	}
	var flags uint64
	for i, b := range [...]bool{k.skipWitness, k.minimizeWitness, k.skipLint} {
		if b {
			flags |= 1 << i
		}
	}
	for _, v := range [...]uint64{uint64(k.maxSolverNodes), uint64(k.maxValue), flags} {
		for i := 0; i < 64; i += 8 {
			h = (h ^ (v >> i & 0xff)) * prime
		}
	}
	return h
}

// cacheEntry is one stored verdict: the response fields of the check
// that produced it, with the certificate as the compact JSON its
// response carried. Entries are immutable once inserted, so a reader
// may use one after releasing the cache lock, and a response may
// carry its cert bytes as they are.
type cacheEntry struct {
	key                               cacheKey
	verdict                           xmlspec.Verdict
	class, method, witness, diagnosis string
	stats                             xmlspec.Stats
	cert                              json.RawMessage
	size                              int
}

// newCacheEntry stores res with its certificate as the compact JSON
// the response carries. The per-run cost rows are dropped: they
// describe a solve, not the verdict.
func newCacheEntry(key cacheKey, res xmlspec.Result, cert json.RawMessage) *cacheEntry {
	e := &cacheEntry{
		key: key, verdict: res.Verdict,
		class: res.Class, method: res.Method, witness: res.Witness, diagnosis: res.Diagnosis,
		stats: res.Stats, cert: cert,
	}
	e.size = entryOverhead + len(key.digest) + len(e.class) + len(e.method) +
		len(e.witness) + len(e.diagnosis) + len(cert)
	return e
}

// result rebuilds the check result a hit answers with, around the
// certificate decoded from the entry's bytes.
func (e *cacheEntry) result(cert *certificate.Certificate) xmlspec.Result {
	return xmlspec.Result{
		Verdict: e.verdict, Class: e.class, Method: e.method,
		Witness: e.witness, Diagnosis: e.diagnosis,
		Certificate: cert, Stats: e.stats,
	}
}

// verdictCache is the /check verdict cache: an LRU of entries under a
// byte budget, fronted by an admission filter that stores a key only on
// its second sighting.
type verdictCache struct {
	budget int

	mu      sync.Mutex
	entries map[cacheKey]*list.Element // values are *cacheEntry
	lru     *list.List                 // front: most recently used
	bytes   int
	seen    fingerprintSet
}

func newVerdictCache(budget int) *verdictCache {
	return &verdictCache{
		budget:  budget,
		entries: map[cacheKey]*list.Element{},
		lru:     list.New(),
		seen:    newFingerprintSet(seenCapacity),
	}
}

// get returns the entry stored under key, marking it most recently
// used, or nil.
func (c *verdictCache) get(key cacheKey) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// sighted records a sighting of the key with fingerprint fp and reports
// whether it had been seen before, i.e. whether its result is admitted.
func (c *verdictCache) sighted(fp uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen.contains(fp) {
		return true
	}
	c.seen.add(fp)
	return false
}

// insert stores e, replacing any entry under its key, and evicts least
// recently used entries until the budget holds. It reports how many it
// evicted and whether e was stored (an entry larger than the whole
// budget never is).
func (c *verdictCache) insert(e *cacheEntry) (evicted int, stored bool) {
	if e.size > c.budget {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		c.unlink(el)
	}
	for c.bytes+e.size > c.budget {
		c.unlink(c.lru.Back())
		evicted++
	}
	c.entries[e.key] = c.lru.PushFront(e)
	c.bytes += e.size
	return evicted, true
}

// remove drops e if it is still the entry stored under its key.
func (c *verdictCache) remove(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok && el.Value == e {
		c.unlink(el)
	}
}

// unlink drops one entry; the caller holds mu.
func (c *verdictCache) unlink(el *list.Element) {
	e := c.lru.Remove(el).(*cacheEntry)
	delete(c.entries, e.key)
	c.bytes -= e.size
}

// stats reports the entry count and stored bytes.
func (c *verdictCache) stats() (entries, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.bytes
}

// fingerprintSet is a bounded set of 64-bit fingerprints that forgets
// its oldest member first. Unlike a direct-mapped table, two colliding
// keys cannot evict each other: a member stays until capacity newer
// members have been added after it.
type fingerprintSet struct {
	capacity int
	members  map[uint64]struct{}
	ring     []uint64 // insertion order; next is the oldest once full
	next     int
}

// newFingerprintSet returns an empty set; it grows with use, so a
// server that never sees traffic pays nothing for it.
func newFingerprintSet(capacity int) fingerprintSet {
	return fingerprintSet{capacity: capacity, members: map[uint64]struct{}{}}
}

func (f *fingerprintSet) contains(fp uint64) bool {
	_, ok := f.members[fp]
	return ok
}

// add inserts a fingerprint that is not a member, forgetting the
// oldest member when the set is full.
func (f *fingerprintSet) add(fp uint64) {
	if len(f.ring) < f.capacity {
		f.ring = append(f.ring, fp)
	} else {
		delete(f.members, f.ring[f.next])
		f.ring[f.next] = fp
		f.next = (f.next + 1) % len(f.ring)
	}
	f.members[fp] = struct{}{}
}

// decide answers a /check: from the verdict cache when a stored
// certificate re-verifies against this request's spec, otherwise by a
// full check whose definitive verdict is offered to the cache. It
// returns the certificate as the compact JSON the response carries: a
// hit's stored bytes, or a miss's certificate marshaled once and shared
// with the entry it may become.
func (s *Server) decide(ctx context.Context, spec *xmlspec.Spec, opts *xmlspec.Options, rq *request) (xmlspec.Result, json.RawMessage, error) {
	// Attribution rows describe one solve, and a check without a
	// certificate would leave a hit nothing to verify.
	if rq.req.Options.Attribution || rq.req.Options.SkipCertificate {
		return checkAndMarshal(ctx, spec, opts)
	}
	key := cacheKey{
		digest:          rq.SpecDigest,
		maxSolverNodes:  opts.MaxSolverNodes,
		maxValue:        opts.MaxValue,
		skipWitness:     opts.SkipWitness,
		minimizeWitness: opts.MinimizeWitness,
		skipLint:        opts.SkipLint,
	}
	if res, cert, ok := s.cached(spec, key, rq); ok {
		return res, cert, nil
	}
	rq.rec.Add(cacheMisses, 1)
	res, cert, err := checkAndMarshal(ctx, spec, opts)
	if err == nil && cert != nil && s.cache.sighted(key.fingerprint()) {
		s.store(newCacheEntry(key, res, cert), rq)
	}
	return res, cert, err
}

// checkAndMarshal decides spec in full and marshals its certificate,
// if it has one, as compact JSON.
func checkAndMarshal(ctx context.Context, spec *xmlspec.Spec, opts *xmlspec.Options) (xmlspec.Result, json.RawMessage, error) {
	res, err := spec.CheckContext(ctx, opts)
	if err != nil || res.Certificate == nil {
		return res, nil, err
	}
	cert, err := json.Marshal(res.Certificate)
	if err != nil {
		return res, nil, fmt.Errorf("encoding response: %w", err)
	}
	return res, cert, nil
}

// cached looks key up under a server.cache span. A hit decodes the
// entry's certificate bytes and re-proves the decoded certificate
// against spec under a verify child span, then answers with those same
// bytes; one that fails verification is counted, evicted, and reported
// as a miss so the caller re-decides.
func (s *Server) cached(spec *xmlspec.Spec, key cacheKey, rq *request) (xmlspec.Result, json.RawMessage, bool) {
	sp := rq.rec.Start("server.cache")
	defer sp.End()
	e := s.cache.get(key)
	if e == nil {
		return xmlspec.Result{}, nil, false
	}
	vsp := rq.rec.Start("verify")
	cert := new(certificate.Certificate)
	err := json.Unmarshal(e.cert, cert)
	if err == nil {
		err = spec.VerifyCertificate(cert)
	}
	vsp.End()
	if err != nil {
		rq.rec.Add(cacheVerifyFailures, 1)
		s.cache.remove(e)
		s.log.Warn("cached certificate failed verification; re-deciding",
			"request_id", rq.RequestID, "trace_id", rq.TraceID, "spec_digest", rq.SpecDigest, "err", err)
		return xmlspec.Result{}, nil, false
	}
	rq.rec.Add(cacheHits, 1)
	return e.result(cert), e.cert, true
}

// store puts a decided result's entry into the cache.
func (s *Server) store(e *cacheEntry, rq *request) {
	evicted, stored := s.cache.insert(e)
	if stored {
		rq.rec.Add(cacheAdmits, 1)
	}
	if evicted > 0 {
		rq.rec.Add(cacheEvictions, int64(evicted))
	}
}
