// Command perfbench is the repository's end-to-end benchmark. It drives
// the xmlconsistd daemon built from the checkout under test with a
// closed loop of seeded, generated specifications over loopback HTTP,
// checks every answer against the instance's known verdict, verifies
// every distinct certificate, and prints the metrics BENCHMARK.json
// names. With -trace 1 it instead prints the per-layer metrics of a
// traced run. Run it through run.sh, which builds both binaries:
//
//	bash perfbench/run.sh --workload hard-replay --seed 7 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it stamp
// the machine and summarize the run for a human reader.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupStarts is how many cold daemon starts one run times; setup_s is
// their median, because a single start-to-ready time swings severalfold
// with CPU steal on a shared host.
const setupStarts = 21

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flags.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flags.Int("seconds", 10, "seconds one run measures")
	trace := flags.Int("trace", 0, "1: print the per-layer metrics of a traced run instead")
	daemonBin := flags.String("daemon", ".bench_build/xmlconsistd", "xmlconsistd binary under test")
	root := flags.String("root", ".", "checkout the daemon was built from (for the revision stamp)")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w, err := NewWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	printStamp(stdout, *root, w, *seed)
	dur := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = tracedRun(*daemonBin, w, dur)
	} else {
		res, err = timedRun(*daemonBin, w, dur)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(stdout, "failure:", f)
	}
	res.print(stdout)
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line plus the human summary before
// it.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	order             []string
	notes             []string
	failures          []string
}

func (r *result) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintln(w, string(line))
}

// timedRun measures the end-to-end metrics: setupStarts cold starts,
// then a closed loop of dur against the last daemon started.
func timedRun(bin string, w *Workload, dur time.Duration) (*result, error) {
	d, setup, err := coldStarts(bin, w, setupStarts)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	c := newClient(d.addr)
	defer c.close()

	host0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	lr, err1 := runLoop(c, w, d.pid(), dur)
	host1, err2 := readHostCPU()
	hwm, err3 := peakRSSKiB(d.pid())
	if err := errors.Join(err1, err2, err3); err != nil {
		return nil, err
	}
	lr.verifyCertificates(w)

	res := &result{attempted: lr.attempted, failed: lr.failed, failures: lr.failures}
	n := len(lr.cpuMS)
	if n == 0 {
		return nil, fmt.Errorf("no request of %s succeeded: %v", w.Name, lr.failures)
	}
	p50, _ := quantile(lr.cpuMS, 0.5)
	p90, beyond := quantile(lr.cpuMS, 0.9)
	wall50, _ := quantile(lr.latencyMS, 0.5)
	wall90, _ := quantile(lr.latencyMS, 0.9)
	res.notes = append(res.notes,
		fmt.Sprintf("workload %s: %s, one connection, closed loop, %d requests in %.2fs", w.Name, w.Endpoint, lr.attempted, lr.wall.Seconds()),
		fmt.Sprintf("samples %d (p90 leaves %d beyond it); repeat share %.4f; host steal share %.4f", n, beyond, float64(lr.repeats)/float64(lr.attempted), stealShare(host0, host1)),
		fmt.Sprintf("wall clock, not gated: latency p50 %.4f ms, p90 %.4f ms; throughput %.4f 1/s", wall50, wall90, float64(n)/lr.wall.Seconds()),
		fmt.Sprintf("setup starts (s): %s", formatFloats(setup)))
	if beyond < 10 {
		res.notes = append(res.notes, "warning: fewer than ten samples beyond p90")
	}
	res.set("setup_s", "s", median(setup))
	res.set("cpu_p50_ms", "ms", p50)
	res.set("cpu_p90_ms", "ms", p90)
	res.set("cpu_ms_per_req", "ms", float64(lr.cpu.Nanoseconds())/1e6/float64(n))
	res.set("peak_rss_mb", "MB", float64(hwm)/1024)
	return res, nil
}

// coldStarts starts the daemon k times, timing exec to ready plus one
// warm-up pass each, and returns the last daemon still running with
// every start's time in seconds.
func coldStarts(bin string, w *Workload, k int) (*daemon, []float64, error) {
	var times []float64
	for i := 0; i < k; i++ {
		t0 := time.Now()
		d, err := startDaemon(bin)
		if err != nil {
			return nil, nil, err
		}
		c := newClient(d.addr)
		for _, s := range w.Warm {
			status, body, err := c.post(w.Endpoint, s.Body())
			if err == nil && status != 200 {
				err = fmt.Errorf("warm-up %s: status %d: %.200s", s.Key, status, body)
			}
			if err != nil {
				c.close()
				d.stop()
				return nil, nil, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
		c.close()
		if i == k-1 {
			return d, times, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, errors.New("no daemon started")
}

// quantile returns the nearest-rank q-quantile of xs and how many
// samples lie beyond it.
func quantile(xs []float64, q float64) (float64, int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*q+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	return s[i], len(s) - 1 - i
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func formatFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// printStamp prints the machine and revision the run measured.
func printStamp(w io.Writer, root string, wl *Workload, seed int64) {
	stamp := map[string]any{
		"workload":   wl.Name,
		"seed":       seed,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"revision":   revision(root),
		"go":         runtime.Version(),
	}
	b, _ := json.Marshal(stamp) // strings and ints always marshal
	fmt.Fprintln(w, "stamp", string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision names the commit under test: git's HEAD when the checkout is
// a work tree, and otherwise a digest of the Go sources, which tells
// two source trees apart just as well.
func revision(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel", "HEAD").Output()
	abs, aerr := filepath.Abs(root)
	if f := strings.Fields(string(out)); err == nil && aerr == nil && len(f) == 2 && f[0] == abs {
		return f[1]
	}
	h := sha256.New()
	err = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && strings.HasPrefix(e.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if e.IsDir() || !(strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path is under root
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
