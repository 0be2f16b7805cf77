// Package fuzzcorpus reads the committed seed corpora of Go fuzz
// targets (testdata/fuzz/<Target>/*), so that differential tests can
// replay the same inputs the fuzz targets start from, and derives
// seeded mutations of such inputs.
package fuzzcorpus

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// header is the first line of every corpus file.
const header = "go test fuzz v1"

// Load returns the string arguments of every corpus file in dir, one
// slice per file, in file-name order. A missing directory is an empty
// corpus; a file that is not a corpus file of string arguments is an
// error.
func Load(dir string) ([][]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out [][]string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		args, err := parse(string(b))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, args)
	}
	return out, nil
}

// parse decodes one corpus file: the header line, then one
// string("...") line per argument.
func parse(src string) ([]string, error) {
	lines := strings.Split(strings.TrimRight(src, "\n"), "\n")
	if len(lines) == 0 || lines[0] != header {
		return nil, fmt.Errorf("missing %q header", header)
	}
	var args []string
	for _, ln := range lines[1:] {
		quoted, ok := strings.CutPrefix(ln, "string(")
		if quoted, ok = strings.CutSuffix(quoted, ")"); !ok {
			return nil, fmt.Errorf("argument %q is not a string", ln)
		}
		s, err := strconv.Unquote(quoted)
		if err != nil {
			return nil, fmt.Errorf("argument %q: %w", ln, err)
		}
		args = append(args, s)
	}
	return args, nil
}

// Mutate returns n variants of the seeds, drawn from rng: each is one
// seed with one to three edits, every edit inserting a token, deleting
// a run of up to eight bytes, or replacing a run by a token. Edits
// work on bytes, so variants may split multi-byte runes.
func Mutate(rng *rand.Rand, seeds, tokens []string, n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		s := seeds[rng.Intn(len(seeds))]
		for edits := 1 + rng.Intn(3); edits > 0; edits-- {
			at := rng.Intn(len(s) + 1)
			end := min(len(s), at+rng.Intn(9))
			switch tok := tokens[rng.Intn(len(tokens))]; rng.Intn(3) {
			case 0:
				s = s[:at] + tok + s[at:]
			case 1:
				s = s[:at] + s[end:]
			default:
				s = s[:at] + tok + s[end:]
			}
		}
		out = append(out, s)
	}
	return out
}
