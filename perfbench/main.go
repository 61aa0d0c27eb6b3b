// Command perfbench is the repository's end-to-end and per-layer
// benchmark: one command per workload run, every end-to-end metric
// printed by name with its unit and every workload's outputs checked
// for correctness. NOTES.md explains the workloads, the metrics and the
// layer map.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload paper-tables --seed 1 --seconds 45 --trace 0
//
// --trace 0 measures the end-to-end metrics on an untraced run; --trace 1
// runs the same workload traced, keeps the spans in memory, writes them
// to .bench_out/ at the end and reports the per-layer metrics derived
// from them. The last line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	plain  func(*run) error
	traced func(*run) error
}{
	"paper-tables":     {plain: plainTables, traced: tracedTables},
	"extension-scalar": {plain: plainExtension, traced: tracedExtension},
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool

	tr *tracer // nil on untraced runs

	attempted, failed int
	problems          []string // correctness failures; any one fails the run
	metrics           map[string]float64
}

func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", msg)
	}
	r.problems = append(r.problems, msg)
}

func (r *run) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("perfbench: metric not declared: " + name)
	}
	r.metrics[name] = v
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: paper-tables or extension-scalar")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 12, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(sortedKeys(workloads), ", "))
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, metrics: map[string]float64{},
	}
	fp := fingerprint()
	fmt.Printf("fingerprint %s\n", fp.json())
	var err error
	if r.trace {
		r.tr = newTracer()
		err = w.traced(r)
	} else {
		err = w.plain(r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.trace {
		path, werr := r.tr.write(r.workload, r.seed, fp)
		if werr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", werr)
			os.Exit(1)
		}
		fmt.Printf("spans %d written to %s; self time by span name:\n", len(r.tr.spans), path)
		self := r.tr.selfTimes()
		for _, name := range sortedKeys(self) {
			fmt.Printf("self %-36s %12.6f s\n", name, self[name].Seconds())
		}
	}
	os.Exit(r.report())
}

func sortedKeys[V any](m map[string]V) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// report prints the metric table and the result line, and returns the
// exit code: non-zero when a correctness check failed or nothing was
// attempted. Every metric of the run's kind must have been set: a
// missing one is a benchmark bug.
func (r *run) report() int {
	names := endToEnd
	if r.trace {
		names = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, n := range names {
		v, ok := r.metrics[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", n)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", n, v)
			return 1
		}
		fmt.Printf("metric %-36s %16.6g %s\n", n, v, units[n])
		out[n] = value{Value: v, Unit: units[n]}
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("metric %-36s %16.6g %s (%d of %d operations)\n", "failed_frac", frac, "ratio", r.failed, r.attempted)
	if len(r.problems) > 0 {
		fmt.Printf("correctness: %d check(s) failed\n", len(r.problems))
	} else {
		fmt.Println("correctness: all checks passed")
	}
	correct := len(r.problems) == 0 && r.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(r.attempted, 1), r.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}
