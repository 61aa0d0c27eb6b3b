package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/perfbench/pass"
)

// keySalt separates a cell's quantile-sketch key stream from its rep
// stream — the derivation experiment's shard executor applies. The
// replay below must match it; if it drifts, the replay's shard bytes
// stop matching the Runner's and the run fails.
const keySalt = 0xd1342543de82ef95

// tracedPasses runs pass 0 untraced as a warm-up (and checks its
// digests), then pairs of untraced and traced in-process passes at the
// same seeds, in alternating order: the traced ones install a counting
// Sink, table and cell spans and an OnShard hook; the pairs' reps/s
// difference is the tracing overhead, and their outputs must agree
// exactly.
func tracedPasses(r *run, k pass.Kind, pairs int) {
	warm := pass.Run(k, experiment.Runner{Reps: k.Reps, Seed: passSeed(r.seed, 0)}, nil)
	checkDigests(r, k, warm)
	r.attempted += warm.Cells
	r.failed += warm.Failed
	sink := &layerSink{tr: r.tr}
	var plain, traced []float64
	for i := 1; i <= pairs; i++ {
		seed := passSeed(r.seed, i)
		var onShard atomic.Int64
		tr := experiment.Runner{Reps: k.Reps, Seed: seed, Sink: sink,
			OnShard: func(uint64, int, int, []byte) { onShard.Add(1) }}
		before := sink.count(experiment.MetricShards)
		var p, t pass.Result
		runPlain := func() { p = pass.Run(k, experiment.Runner{Reps: k.Reps, Seed: seed}, nil) }
		runTraced := func() { t = pass.Run(k, tr, sink.table(fmt.Sprintf("%s/pass%d", r.workload, i))) }
		if i%2 == 1 {
			runPlain()
			runTraced()
		} else {
			runTraced()
			runPlain()
		}
		if t.Exact != p.Exact {
			r.fail("pass %d: traced output %s differs from untraced %s", i, t.Exact, p.Exact)
		}
		if got, want := onShard.Load(), sink.count(experiment.MetricShards)-before; got != want {
			r.fail("pass %d: OnShard saw %d shards, the Sink counted %d", i, got, want)
		}
		plain = append(plain, float64(p.Reps)/p.WallS)
		traced = append(traced, float64(t.Reps)/t.WallS)
		r.attempted += p.Cells + t.Cells
		r.failed += p.Failed + t.Failed
	}
	r.set("trace.overhead_frac", 1-median(traced)/median(plain))
	hits := float64(sink.count(experiment.MetricPlannerHits))
	misses := float64(sink.count(experiment.MetricPlannerMisses))
	r.set("core.plan_hit_ratio", ratio(hits, hits+misses))
	r.set("core.plan_misses", misses/float64(pairs))
	r.set("experiment.shards", float64(sink.count(experiment.MetricShards))/float64(pairs))
	r.set("experiment.shards_stolen", float64(sink.count(experiment.MetricShardsStolen))/float64(pairs))
	r.set("experiment.cell_s_p50", median(r.tr.durationsMS("experiment.cell"))/1e3)
}

// tracedPairs is how many untraced/traced pass pairs a traced batch run
// makes: about half the run's time, at least four.
func tracedPairs(r *run) int {
	return max(4, int(r.seconds/(6*time.Second)))
}

func tracedTables(r *run) error {
	r.zeroLayers()
	tracedPasses(r, pass.Paper, tracedPairs(r))
	spec := experiment.Tables()[0] // 1a
	seed := passSeed(r.seed, 1)
	replaySelf(r, spec, seed)
	scaling(r, seed)
	arrivals(r, spec, seed)
	// The service's loads are not benchmark workloads (NOTES.md says
	// why), so this traced run also measures the service's layers.
	return serviceLayers(r)
}

// shardID addresses one shard checkpoint of a cell.
type shardID struct {
	cell       uint64
	start, end int
}

// replaySelf runs spec through RunTable at one worker, keeping every
// shard's bytes, then rebuilds every cell through the layer calls the
// shard executor makes — rng.StreamBatch, sim.RunBatch (or the scalar
// sim.RunScheme loop outside the batch envelope), stats.Shard.ObserveRuns,
// AppendBinary and Merge — with a span around each. The bytes and the
// cell Summaries must match the Runner's exactly. The scheduler's own
// share of the one-worker wall time is what the layer spans leave; both
// sides are timed three times, alternately, and compared by median.
func replaySelf(r *run, spec experiment.Spec, seed uint64) {
	want := map[shardID][]byte{}
	var wantMu sync.Mutex
	ref := experiment.Runner{Reps: pass.Paper.Reps, Seed: seed, Workers: 1,
		OnShard: func(cell uint64, start, end int, data []byte) {
			wantMu.Lock()
			want[shardID{cell, start, end}] = data
			wantMu.Unlock()
		}}
	// The Runner's worker contexts are warm from the earlier passes; warm
	// the replay's the same way with one untimed replay after the first
	// RunTable.
	rctx, bctx := sim.NewRunContext(), sim.NewBatchContext()
	var walls, layers []float64
	var total replayTimes
	for i := 0; i < 4; i++ {
		t0 := time.Now()
		tbl, err := ref.RunTable(spec)
		t1 := time.Now()
		r.attempted++
		if err != nil {
			r.failed++
			r.fail("RunTable %s at one worker: %v", spec.ID, err)
			return
		}
		if i == 0 {
			replay(r, spec, seed, tbl, rctx, bctx, nil, want)
			continue
		}
		r.tr.add(0, "replay", "experiment.run_table_1w", t0, t1)
		rt := replay(r, spec, seed, tbl, rctx, bctx, r.tr, want)
		walls = append(walls, t1.Sub(t0).Seconds())
		layers = append(layers, rt.layers().Seconds())
		total.add(rt)
	}
	perRep := func(d time.Duration) float64 { return ratio(float64(d), float64(total.reps)) }
	perShard := func(d time.Duration) float64 { return ratio(float64(d), float64(total.shards)) }
	r.set("rng.seed_fill_ns_per_rep", perRep(total.seed))
	r.set("sim.batch_ns_per_rep", perRep(total.batch))
	r.set("stats.observe_ns_per_rep", perRep(total.observe))
	r.set("stats.merge_ns_per_shard", perShard(total.merge))
	r.set("stats.encode_ns_per_shard", perShard(total.encode))
	r.set("stats.decode_ns_per_shard", perShard(total.decode))
	r.set("stats.shard_bytes", ratio(float64(total.bytes), float64(total.shards)))
	r.set("experiment.self_frac", 1-median(layers)/median(walls))
}

// replayTimes is the time one replay spent in each layer call.
type replayTimes struct {
	seed, batch, scalar, observe, encode, decode, merge time.Duration
	reps, shards, bytes                                 int
}

// layers is everything the shard executor itself does per shard;
// decoding is only a codec probe.
func (t replayTimes) layers() time.Duration {
	return t.seed + t.batch + t.scalar + t.observe + t.encode + t.merge
}

func (t *replayTimes) add(o replayTimes) {
	t.seed += o.seed
	t.batch += o.batch
	t.scalar += o.scalar
	t.observe += o.observe
	t.encode += o.encode
	t.decode += o.decode
	t.merge += o.merge
	t.reps += o.reps
	t.shards += o.shards
	t.bytes += o.bytes
}

// replay is one replay of tbl's cells, checked against want; tr nil
// records no spans.
func replay(r *run, spec experiment.Spec, seed uint64, tbl experiment.Table, rctx *sim.RunContext, bctx *sim.BatchContext, tr *tracer, want map[shardID][]byte) (rt replayTimes) {
	var scratch, decoded stats.Shard
	var buf []byte
	root := tr.id()
	rootStart := time.Now()
	for ri, row := range tbl.Rows {
		for col, scheme := range spec.Schemes() {
			params, perr := spec.CellParams(row.U, row.Lambda)
			if perr != nil {
				r.fail("cell params: %v", perr)
				return rt
			}
			cellSeed := experiment.CellSeed(seed, spec.ID, row.U, row.Lambda, scheme.Name())
			run := fmt.Sprintf("replay/%s/%d/%d", spec.ID, ri, col)
			var agg stats.Shard
			cell, cellStart := tr.id(), time.Now()
			for start := 0; start < tbl.Reps; start += experiment.DefaultShardSize {
				end := min(start+experiment.DefaultShardSize, tbl.Reps)
				n := end - start
				bctx.Grow(n)
				scratch.Reset()
				t0 := time.Now()
				rng.StreamBatch(cellSeed, start, bctx.Seeds[:n])
				rng.StreamBatch(cellSeed^keySalt, start, bctx.Keys[:n])
				t1 := time.Now()
				var t2 time.Time
				if sim.RunBatch(rctx, bctx, scheme, params, bctx.Seeds[:n]) {
					t2 = time.Now()
					scratch.ObserveRuns(bctx.Keys[:n], bctx.Completed, bctx.Energy, bctx.Time, bctx.Faults, bctx.Switches)
					rt.batch += t2.Sub(t1)
					tr.add(cell, run, "sim.batch", t1, t2)
				} else {
					for rep := start; rep < end; rep++ {
						res := sim.RunScheme(rctx, scheme, params, rctx.Reseed(bctx.Seeds[rep-start]))
						scratch.ObserveRun(bctx.Keys[rep-start], res.Completed, res.SilentCorruption,
							res.Energy, res.Time, float64(res.Faults), float64(res.Switches))
					}
					t2 = time.Now()
					rt.scalar += t2.Sub(t1)
					tr.add(cell, run, "sim.scalar", t1, t2)
				}
				t3 := time.Now()
				buf = scratch.AppendBinary(buf[:0])
				t4 := time.Now()
				derr := decoded.UnmarshalBinary(buf)
				t5 := time.Now()
				agg.Merge(&scratch)
				t6 := time.Now()
				tr.add(cell, run, "rng.seed_fill", t0, t1)
				tr.add(cell, run, "stats.observe", t2, t3)
				tr.add(cell, run, "stats.encode", t3, t4)
				tr.add(cell, run, "stats.decode", t4, t5)
				tr.add(cell, run, "stats.merge", t5, t6)
				rt.seed += t1.Sub(t0)
				rt.observe += t3.Sub(t2)
				rt.encode += t4.Sub(t3)
				rt.decode += t5.Sub(t4)
				rt.merge += t6.Sub(t5)
				rt.reps += n
				rt.shards++
				rt.bytes += len(buf)
				if derr != nil {
					r.fail("decode shard %s cell %d [%d,%d): %v", spec.ID, cellSeed, start, end, derr)
				}
				if w := want[shardID{cellSeed, start, end}]; !bytes.Equal(w, buf) {
					r.fail("replayed shard %s cell %d [%d,%d) differs from the Runner's (%d vs %d bytes)",
						spec.ID, cellSeed, start, end, len(buf), len(w))
				}
			}
			tr.record(cell, root, run, "experiment.replay_cell", cellStart, time.Now())
			if got, w := pass.Exact(agg.Summary()), pass.Exact(row.Cells[col].Summary); got != w {
				r.fail("replayed cell %s U=%g λ=%g col %d: %s, Runner %s", spec.ID, row.U, row.Lambda, col, got, w)
			}
		}
	}
	tr.record(root, 0, "replay", "experiment.replay_table", rootStart, time.Now())
	return rt
}

// scaling times Tables 1a and 3a at one worker and at nproc workers,
// twice each alternately, and reports the parallel efficiency.
func scaling(r *run, seed uint64) {
	specs := []experiment.Spec{experiment.Tables()[0], experiment.Tables()[4]}
	n := runtime.NumCPU()
	rate := func(workers int) float64 {
		rr := experiment.Runner{Reps: pass.Paper.Reps, Seed: seed, Workers: workers}
		t0 := time.Now()
		reps := 0
		for _, s := range specs {
			ts := time.Now()
			tbl, err := rr.RunTable(s)
			r.tr.add(0, "scaling", fmt.Sprintf("experiment.run_table_%dw", workers), ts, time.Now())
			r.attempted++
			if err != nil {
				r.failed++
				r.fail("RunTable %s at %d workers: %v", s.ID, workers, err)
			}
			done, _ := tbl.CellsDone()
			reps += done * rr.Reps
		}
		return float64(reps) / time.Since(t0).Seconds()
	}
	var one, many []float64
	for i := 0; i < 2; i++ {
		one = append(one, rate(1))
		many = append(many, rate(n))
	}
	r.set("experiment.scaling_eff", median(many)/median(one)/float64(n))
}

// arrivals materialises every cell's fault arrivals the way the batch
// kernel does (Reset with its size hint, then EnsureBeyond the
// deadline), for 20000 streams per fault rate.
func arrivals(r *run, spec experiment.Spec, seed uint64) {
	var arr fault.Arrivals
	src := rng.New(seed)
	draws := 0
	var elapsed time.Duration
	for _, lam := range spec.Lambdas {
		p, err := spec.CellParams(spec.Us[0], lam)
		if err != nil {
			r.fail("cell params: %v", err)
			return
		}
		hint := min(int(lam*p.Task.Cycles*1.2)+3, 64)
		seeds := make([]uint64, 20000)
		rng.StreamBatch(seed^math.Float64bits(lam), 0, seeds)
		t0 := time.Now()
		for _, s := range seeds {
			src.Reseed(s)
			arr.Reset(lam, src, hint)
			draws += len(arr.EnsureBeyond(p.Task.Deadline))
		}
		t1 := time.Now()
		elapsed += t1.Sub(t0)
		r.tr.add(0, "arrivals", "fault.arrivals", t0, t1)
	}
	r.set("fault.arrivals_ns_per_draw", ratio(float64(elapsed), float64(draws)))
}

// tracedExtension alternates untraced and traced extension passes, then
// times every E3/E4 column through Runner.RunCell with a span per cell.
func tracedExtension(r *run) error {
	r.zeroLayers()
	tracedPasses(r, pass.Extension, tracedPairs(r))
	seed := passSeed(r.seed, 1)
	ref := experiment.Runner{Reps: pass.Extension.Reps, Seed: seed}
	rctx, bctx := sim.NewRunContext(), sim.NewBatchContext()
	var scalar time.Duration
	scalarReps := 0
	for _, spec := range pass.Extension.Specs() {
		schemes := pass.Extension.Schemes(spec)
		for col, scheme := range schemes {
			var d time.Duration
			reps := 0
			for _, u := range spec.Us {
				for _, lam := range spec.Lambdas {
					t0 := time.Now()
					_, err := ref.RunCell(spec, scheme, u, lam)
					t1 := time.Now()
					r.tr.add(0, fmt.Sprintf("cells/%s/%d", spec.ID, col), "experiment.run_cell", t0, t1)
					r.attempted++
					if err != nil {
						r.failed++
						r.fail("RunCell %s col %d: %v", spec.ID, col, err)
					}
					d += t1.Sub(t0)
					reps += ref.Reps
				}
			}
			r.set(fmt.Sprintf("sim.col_ns_per_rep.%s.%d", spec.ID, col), ratio(float64(d), float64(reps)))
			// A column is on the scalar engine when the batch kernel
			// declines it.
			p, _ := spec.CellParams(spec.Us[0], spec.Lambdas[0])
			bctx.Grow(1)
			if !sim.RunBatch(rctx, bctx, scheme, p, bctx.Seeds[:1]) {
				scalar += d
				scalarReps += reps
			}
		}
	}
	r.set("sim.scalar_ns_per_rep", ratio(float64(scalar), float64(scalarReps)))
	return nil
}
