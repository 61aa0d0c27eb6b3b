package main

import (
	"math"
	"sort"
)

// endToEnd are the metrics every untraced run reports, on every
// workload; NOTES.md gives each one's meaning.
var endToEnd = []string{"setup_s", "reps_per_s", "peak_rss_mb"}

// extColumns names the per-column scalar-engine metrics of the two
// extension tables the extension-scalar workload runs.
var extColumns = func() []string {
	var names []string
	for _, id := range []string{"E3", "E4"} {
		for c := 0; c < 5; c++ {
			names = append(names, "sim.col_ns_per_rep."+id+"."+string(rune('0'+c)))
		}
	}
	return names
}()

// perLayer are the metrics every traced run reports. A layer the
// workload does not exercise reads 0.
var perLayer = append([]string{
	"rng.seed_fill_ns_per_rep",
	"fault.arrivals_ns_per_draw",
	"sim.batch_ns_per_rep",
	"sim.scalar_ns_per_rep",
	"core.plan_hit_ratio",
	"core.plan_misses",
	"stats.observe_ns_per_rep",
	"stats.merge_ns_per_shard",
	"stats.encode_ns_per_shard",
	"stats.decode_ns_per_shard",
	"stats.shard_bytes",
	"experiment.shards",
	"experiment.shards_stolen",
	"experiment.cell_s_p50",
	"experiment.self_frac",
	"experiment.scaling_eff",
	"experiment.exec_unit_ns_per_rep",
	"serve.submit_ms_p50",
	"serve.exec_ms_p50.single",
	"serve.exec_ms_p50.grid",
	"serve.wait_ms_p50",
	"serve.journal_syncs_per_job",
	"serve.journal_bytes_per_job",
	"storage.fsync_ms_p50",
	"cluster.dispatch_ms_p50",
	"cluster.worker_503_per_job",
	"cluster.units_per_job",
	"cluster.useful_dispatch_ratio",
	"cluster.cache_hit_ratio",
	"trace.overhead_frac",
}, extColumns...)

var units = func() map[string]string {
	u := map[string]string{
		"setup_s": "s", "reps_per_s": "1/s", "peak_rss_mb": "MB",

		"rng.seed_fill_ns_per_rep":        "ns",
		"fault.arrivals_ns_per_draw":      "ns",
		"sim.batch_ns_per_rep":            "ns",
		"sim.scalar_ns_per_rep":           "ns",
		"core.plan_hit_ratio":             "ratio",
		"core.plan_misses":                "count",
		"stats.observe_ns_per_rep":        "ns",
		"stats.merge_ns_per_shard":        "ns",
		"stats.encode_ns_per_shard":       "ns",
		"stats.decode_ns_per_shard":       "ns",
		"stats.shard_bytes":               "bytes",
		"experiment.shards":               "count",
		"experiment.shards_stolen":        "count",
		"experiment.cell_s_p50":           "s",
		"experiment.self_frac":            "ratio",
		"experiment.scaling_eff":          "ratio",
		"experiment.exec_unit_ns_per_rep": "ns",
		"serve.submit_ms_p50":             "ms",
		"serve.exec_ms_p50.single":        "ms",
		"serve.exec_ms_p50.grid":          "ms",
		"serve.wait_ms_p50":               "ms",
		"serve.journal_syncs_per_job":     "count",
		"serve.journal_bytes_per_job":     "bytes",
		"storage.fsync_ms_p50":            "ms",
		"cluster.dispatch_ms_p50":         "ms",
		"cluster.worker_503_per_job":      "count",
		"cluster.units_per_job":           "count",
		"cluster.useful_dispatch_ratio":   "ratio",
		"cluster.cache_hit_ratio":         "ratio",
		"trace.overhead_frac":             "ratio",
	}
	for _, n := range extColumns {
		u[n] = "ns"
	}
	return u
}()

// zeroLayers sets every per-layer metric to 0, the reading of a layer
// the workload does not exercise; the traced run then overwrites the
// ones it measures.
func (r *run) zeroLayers() {
	for _, n := range perLayer {
		r.metrics[n] = 0
	}
}

// quantile is the linearly interpolated q-quantile of xs (sorted in
// place), the definition numpy and Python's statistics module default to.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
