// Command passchild runs one pass of a batch workload in a fresh
// process, the way users run `tables`: it builds the Runner at default
// workers with no Sink, prints "ready", runs the pass and prints its
// result as one JSON line. It links only what `tables` links, so the
// time from exec to "ready" is a `tables`-like process's set-up.
//
//	passchild --kind paper|ext --seed N
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiment"
	"repro/perfbench/pass"
)

func main() {
	kind := flag.String("kind", "", "the pass to run: paper or ext")
	seed := flag.Uint64("seed", pass.DefaultSeed, "the Runner's base seed")
	flag.Parse()
	k, ok := pass.ByName(*kind)
	if !ok {
		fmt.Fprintf(os.Stderr, "passchild: unknown --kind %q\n", *kind)
		os.Exit(2)
	}
	r := experiment.Runner{Reps: k.Reps, Seed: *seed}
	fmt.Println("ready")
	res := pass.Run(k, r, nil)
	res.RSSMB = peakRSSMB()
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "passchild:", err)
		os.Exit(1)
	}
}

// peakRSSMB is this process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
