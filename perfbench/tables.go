package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/telemetry"
	"repro/perfbench/pass"
)

// passSeed is the Runner seed of pass i.
func passSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return pass.DefaultSeed
	}
	return splitmix(seed+uint64(i)) >> 1
}

// plainPasses is the untraced batch workload: fresh-process passes until
// the run's time is up (at least three), then the correctness checks.
// The host-speed probe runs before the first pass and after every pass;
// each pass's figures are taken at the reference host's speed, using
// the mean of the probes on either side of it. Every figure is the
// median over the passes of that pass's own figure, so a pass disturbed
// by load from outside the benchmark does not move the run's result.
func plainPasses(r *run, k pass.Kind) error {
	var setups, rates, rss, rawSetups, rawRates, speeds []float64
	var passes []pass.Result
	pr := newProber()
	before := pr.speed()
	deadline := time.Now().Add(r.seconds)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		c, err := spawn(k, passSeed(r.seed, i))
		if err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		after := pr.speed()
		speed := (before + after) / 2
		before = after
		p := c.result
		if p.WallS <= 0 || p.RSSMB <= 0 {
			return fmt.Errorf("pass %d: child reported wall %v s, peak RSS %v MB", i, p.WallS, p.RSSMB)
		}
		passes = append(passes, p)
		raw := float64(p.Reps) / p.WallS
		rawRates = append(rawRates, raw)
		rawSetups = append(rawSetups, c.setup.Seconds())
		speeds = append(speeds, speed)
		setups = append(setups, c.setup.Seconds()*speed)
		rates = append(rates, raw/speed)
		rss = append(rss, p.RSSMB)
		r.attempted += p.Cells
		r.failed += p.Failed
		if p.ErrorMsg != "" {
			fmt.Fprintf(os.Stderr, "perfbench: pass %d: %s\n", i, p.ErrorMsg)
		}
	}
	checkPasses(r, k, passes)
	r.set("setup_s", median(setups))
	r.set("reps_per_s", median(rates))
	r.set("peak_rss_mb", median(rss))
	fmt.Printf("passes %d, host speed min %.3f median %.3f max %.3f of the reference\n",
		len(passes), quantile(speeds, 0), median(speeds), quantile(speeds, 1))
	fmt.Printf("as measured: reps/s per pass min %.4g median %.4g max %.4g, set-up median %.4g s\n",
		quantile(rawRates, 0), median(rawRates), quantile(rawRates, 1), median(rawSetups))
	fmt.Printf("reps/s per pass at reference speed: min %.4g median %.4g max %.4g\n",
		quantile(rates, 0), median(rates), quantile(rates, 1))
	return nil
}

// checkPasses verifies pass 0 against the recorded digests and re-runs
// two cells of every later pass through the scalar reference path
// (Runner.DisableBatch), which must reproduce their exact Summaries.
func checkPasses(r *run, k pass.Kind, passes []pass.Result) {
	checkDigests(r, k, passes[0])
	specs := k.Specs()
	g := newGen(r.seed, 1)
	for i, p := range passes[1:] {
		seed := passSeed(r.seed, i+1)
		ref := experiment.Runner{Reps: k.Reps, Seed: seed, DisableBatch: true}
		for j := 0; j < 2; j++ {
			spec := specs[g.intn(len(specs))]
			u := spec.Us[g.intn(len(spec.Us))]
			lam := spec.Lambdas[g.intn(len(spec.Lambdas))]
			schemes := k.Schemes(spec)
			col := g.intn(len(schemes))
			key := pass.CellKey(spec.ID, u, lam, col)
			sum, err := ref.RunCell(spec, schemes[col], u, lam)
			if err != nil {
				r.fail("reference cell %s (seed %d): %v", key, seed, err)
				continue
			}
			if got := p.Summary[key]; got != pass.Exact(sum) {
				r.fail("pass %d cell %s (seed %d): got %s, scalar reference %s", i+1, key, seed, got, pass.Exact(sum))
			}
		}
	}
}

// checkDigests verifies a pass at pass.DefaultSeed against the recorded
// digests.
func checkDigests(r *run, k pass.Kind, p pass.Result) {
	if p.CSV != k.CSVSHA || p.Exact != k.ExactSHA {
		r.fail("%s pass 0 (seed %d): csv sha256 %s exact sha256 %s, recorded %s and %s",
			k.Name, pass.DefaultSeed, p.CSV, p.Exact, k.CSVSHA, k.ExactSHA)
	}
}

func plainTables(r *run) error    { return plainPasses(r, pass.Paper) }
func plainExtension(r *run) error { return plainPasses(r, pass.Extension) }

// layerSink is the Runner.Sink of the traced passes: it keeps the
// Runner's counters and records one span per finished cell under the
// sub-table span in flight.
type layerSink struct {
	mu     sync.Mutex
	counts map[string]int64

	tr     *tracer
	run    string
	parent int64 // the table span cells belong to
}

func (s *layerSink) Count(name string, delta int64) {
	s.mu.Lock()
	if s.counts == nil {
		s.counts = map[string]int64{}
	}
	s.counts[name] += delta
	s.mu.Unlock()
}

func (s *layerSink) count(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[name]
}

func (s *layerSink) Observe(string, float64) {}

func (s *layerSink) Event(name string, attrs map[string]any) {
	if name != "cell.finish" {
		return
	}
	sec, _ := attrs["seconds"].(float64)
	end := time.Now()
	s.mu.Lock()
	run, parent := s.run, s.parent
	s.mu.Unlock()
	s.tr.add(parent, run, "experiment.cell", end.Add(-time.Duration(sec*1e9)), end)
}

// table is the pass.Run wrap of the traced passes: a span per sub-table,
// which the cells' spans name as their parent.
func (s *layerSink) table(run string) func(experiment.Spec, func()) {
	return func(_ experiment.Spec, call func()) {
		id, t0 := s.tr.id(), time.Now()
		s.mu.Lock()
		s.run, s.parent = run, id
		s.mu.Unlock()
		call()
		s.tr.record(id, 0, run, "experiment.run_table", t0, time.Now())
	}
}

var _ telemetry.Sink = (*layerSink)(nil)
