package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/experiments"
)

// specs holds the Figure 1 and Figure 2 specifications of the paper,
// copied from the repository's testdata so the benchmark's inputs do
// not move when the fixtures do.
//
//go:embed specs
var specs embed.FS

// Spec is one generated request: a specification in surface syntax and
// the verdict it is known to have.
type Spec struct {
	// Key names the base instance the request was derived from. Two
	// requests with equal keys carry byte-identical specifications.
	Key         string
	DTD         string
	Constraints string
	Expect      consistency.Verdict
	// names holds the spec's element type and attribute names, for
	// renaming; nil once renamed.
	names map[string]bool
}

// Body is the JSON request body the daemon receives for s.
func (s Spec) Body() []byte {
	b, err := json.Marshal(struct {
		DTD         string `json:"dtd"`
		Constraints string `json:"constraints"`
	}{s.DTD, s.Constraints})
	if err != nil {
		panic(err) // two strings always marshal
	}
	return b
}

// Workload is one traffic mix: an endpoint and a deterministic request
// sequence, sent over one closed-loop connection.
type Workload struct {
	Name     string
	Endpoint string
	// Request returns the i-th request of the run. It is a pure
	// function of the seed and i, so the same seed gives the same
	// request list.
	Request func(i int) Spec
	// Warm is the fixed, seed-independent warm-up pass a freshly
	// started daemon answers before it counts as set up.
	Warm []Spec
}

// workloadNames lists every workload the benchmark can run.
var workloadNames = []string{"small-distinct", "hard-replay", "explain-inconsistent"}

// NewWorkload builds the named workload for a seed.
func NewWorkload(name string, seed int64) (*Workload, error) {
	switch name {
	case "small-distinct":
		return smallDistinct(seed), nil
	case "hard-replay":
		return hardReplay(seed), nil
	case "explain-inconsistent":
		return explainInconsistent(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// smallDistinct posts Figure 1/2-shape specifications — the paper's
// examples, Fig4Hierarchical levels 1–6 and Thm35Tractable widths —
// each renamed so that no two requests share a digest.
func smallDistinct(seed int64) *Workload {
	var base []Spec
	base = append(base, paperSpecs()...)
	for levels := 1; levels <= 6; levels++ {
		base = append(base, fromInstance(experiments.Fig4Hierarchical(levels, true)), fromInstance(experiments.Fig4Hierarchical(levels, false)))
	}
	for _, width := range []int{2, 8, 16, 32} {
		base = append(base, fromInstance(experiments.Thm35Tractable(width, true)), fromInstance(experiments.Thm35Tractable(width, false)))
	}
	return &Workload{
		Name:     "small-distinct",
		Endpoint: "/check",
		Request: func(i int) Spec {
			return rename(base[blockOrder(seed, len(base), i)], requestPrefix(seed, i))
		},
		Warm: paperSpecs(),
	}
}

// hardPerFamily is how many instances of each hard family the replay
// pool holds. The pool's average cost is what cpu_ms_per_req
// measures, so it must be large enough that two seeds draw pools of
// similar cost.
const hardPerFamily = 48

// hardFamilies is the number of families in the hard pool.
const hardFamilies = 5

// hardReplay replays a seeded pool of Figure 3/4 hard instances whose
// answers come from internal/reduction's reference solvers (or, for
// the hierarchical chains, from their construction). Every request
// after the first pass over the pool repeats an earlier digest.
//
// Fig3PDE is not in the pool: about one random instance in 1500, at
// n=3 as at n=4, runs into the daemon's 30 s deadline, so a pool of
// 48 would fail the run for roughly one seed in 30.
func hardReplay(seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	var pool []Spec
	for k := 0; k < hardPerFamily; k++ {
		pool = append(pool,
			fromInstance(experiments.Fig3Unary(rng, 6)),
			fromInstance(experiments.Fig3Regular(rng, 3)),
			fromInstance(experiments.Fig4DLocal(rng, 3)),
			fromInstance(experiments.Thm35SubsetSum(rng, 5, 512)),
			fromInstance(experiments.Fig4Hierarchical(10+k%3, true)),
		)
	}
	for i := range pool {
		pool[i] = rename(pool[i], poolPrefix(seed, i))
	}
	return &Workload{
		Name:     "hard-replay",
		Endpoint: "/check",
		Request: func(i int) Spec {
			return pool[blockOrder(seed, len(pool), i)]
		},
		Warm: paperSpecs(),
	}
}

// explainInconsistent posts distinct inconsistent specifications to
// /explain. The mix holds specs the saturation prover refutes
// (geography, hierarchical and tractable unsat, subset-sum) and specs
// only the solver refutes (Fig3Regular unsat). Sizes are chosen so
// every kind's explanation costs within one order of magnitude of the
// others.
func explainInconsistent(seed int64) *Workload {
	geography := paperSpecs()[2]
	fixed := []Spec{
		geography,
		fromInstance(experiments.Fig4Hierarchical(2, false)),
		fromInstance(experiments.Fig4Hierarchical(3, false)),
		fromInstance(experiments.Thm35Tractable(8, false)),
		fromInstance(experiments.Thm35Tractable(16, false)),
		fromInstance(experiments.Thm35Tractable(32, false)),
	}
	// Slots past the fixed kinds draw a fresh random unsat instance per
	// request: two subset-sum, then two Fig3Regular.
	const slots = 10
	return &Workload{
		Name:     "explain-inconsistent",
		Endpoint: "/explain",
		Request: func(i int) Spec {
			slot := blockOrder(seed, slots, i)
			prefix := requestPrefix(seed, i)
			if slot < len(fixed) {
				return rename(fixed[slot], prefix)
			}
			rng := rand.New(rand.NewSource(int64(mix(uint64(seed), uint64(i)) >> 1)))
			for {
				var in experiments.Instance
				if slot < len(fixed)+2 {
					in = experiments.Thm35SubsetSum(rng, 4, 256)
				} else {
					in = experiments.Fig3Regular(rng, 2)
				}
				if in.Expect == consistency.Inconsistent {
					return rename(fromInstance(in), prefix)
				}
			}
		},
		Warm: paperSpecs(),
	}
}

// paperSpecs returns the Figure 1/2 specifications with their known
// verdicts: library (Figure 2a) and school (Section 1) are consistent,
// geography (Figure 1b) is not. The extended school spec is left out:
// deciding it takes a few hundred milliseconds, and explaining it
// seconds, so it would dominate any small mix.
func paperSpecs() []Spec {
	return []Spec{
		specFile("fig2/library", "library.dtd", "library.keys", consistency.Consistent),
		specFile("fig1/school", "school.dtd", "school.keys", consistency.Consistent),
		specFile("fig1/geography", "geography.dtd", "geography.keys", consistency.Inconsistent),
	}
}

func specFile(key, dtdFile, keysFile string, expect consistency.Verdict) Spec {
	read := func(name string) string {
		b, err := specs.ReadFile("specs/" + name)
		if err != nil {
			panic(err) // embedded at build time
		}
		return string(b)
	}
	d, err := dtd.Parse(read(dtdFile))
	if err != nil {
		panic(fmt.Sprintf("%s: %v", dtdFile, err))
	}
	set, err := constraint.ParseSet(read(keysFile))
	if err != nil {
		panic(fmt.Sprintf("%s: %v", keysFile, err))
	}
	return Spec{Key: key, DTD: d.String(), Constraints: set.String(), Expect: expect, names: namesOf(d)}
}

// fromInstance renders an experiments instance in surface syntax.
func fromInstance(in experiments.Instance) Spec {
	return Spec{Key: in.Name, DTD: in.D.String(), Constraints: in.Set.String(), Expect: in.Expect, names: namesOf(in.D)}
}

// namesOf lists a DTD's element type and attribute names.
func namesOf(d *dtd.DTD) map[string]bool {
	names := map[string]bool{}
	for _, n := range d.Names {
		names[n] = true
		for _, a := range d.Elements[n].Attrs {
			names[a] = true
		}
	}
	return names
}

// rename prefixes every element type and attribute name of s. A
// bijective renaming leaves the verdict unchanged and, because the
// prefix is shared, keeps the names' relative order, so the solver's
// work is the same as on the base instance; only the digest changes.
func rename(s Spec, prefix string) Spec {
	return Spec{
		Key:         s.Key + "@" + prefix,
		DTD:         prefixNames(s.DTD, prefix, s.names),
		Constraints: prefixNames(s.Constraints, prefix, s.names),
		Expect:      s.Expect,
	}
}

// prefixNames rewrites every name token of src that is in names. A
// token is a maximal run of the characters DTD and path names are made
// of, so keywords (ELEMENT, CDATA, EMPTY) and the path wildcard "_"
// are never touched.
func prefixNames(src, prefix string, names map[string]bool) string {
	var b strings.Builder
	for i := 0; i < len(src); {
		if !isNameByte(src[i]) {
			b.WriteByte(src[i])
			i++
			continue
		}
		j := i
		for j < len(src) && isNameByte(src[j]) {
			j++
		}
		if names[src[i:j]] {
			b.WriteString(prefix)
		}
		b.WriteString(src[i:j])
		i = j
	}
	return b.String()
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '-' || c == '$' || c == ':' || c == '_'
}

// requestPrefix is the name prefix of request i: seeded, and distinct
// for every i because i itself is spelled into it.
func requestPrefix(seed int64, i int) string {
	return "n" + strconv.FormatUint(mix(uint64(seed), uint64(i))%(36*36*36), 36) + strconv.FormatInt(int64(i), 36) + "_"
}

// poolPrefix is the name prefix of hard-pool entry i.
func poolPrefix(seed int64, i int) string {
	return "h" + strconv.FormatUint(mix(uint64(seed), uint64(i))%(36*36*36), 36) + strconv.Itoa(i) + "_"
}

// blockOrder maps request i onto one of n base entries. Requests come
// in blocks of n that each visit every entry once, in a seeded order,
// so any run's mix holds each entry in near-equal shares whatever its
// length.
func blockOrder(seed int64, n, i int) int {
	block := uint64(i / n)
	perm := make([]int, n)
	for k := range perm {
		perm[k] = k
	}
	// Fisher–Yates, drawing from the hash of (seed, block, k).
	for k := n - 1; k > 0; k-- {
		j := int(mix(uint64(seed)^block<<32, uint64(k)) % uint64(k+1))
		perm[k], perm[j] = perm[j], perm[k]
	}
	return perm[i%n]
}

// mix is SplitMix64's finalizer over two words: a cheap, well-spread
// hash for deriving per-request seeds.
func mix(a, b uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 + b + 0x632be59bd9b4e019
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
