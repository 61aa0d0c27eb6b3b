package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/perfbench/pass"
)

// clusterReps is the repetitions per cell of a cluster-grid job: one
// unit per cell at the coordinator's default 2000 reps per unit.
const clusterReps = 2000

// clusterTables are the sub-tables cluster-grid jobs draw from: the two
// with the fewest cells (16), so that a job is 16 units and enough jobs
// finish in a run to make its medians steady.
var clusterTables = []string{"2b", "4b"}

// clusterPoll is the cluster-grid client's fixed poll interval.
const clusterPoll = 5 * time.Millisecond

// clusterNodes is an in-process coordinator and two workers on loopback
// listeners, configured as `simd -role=coordinator` and `simd
// -role=worker` run them by default (the coordinator journals to a
// FileLog in a scratch directory).
type clusterNodes struct {
	dir     string
	jl      *serve.Journal
	coord   *cluster.Coordinator
	workers []*cluster.Worker
	servers []*http.Server
	done    chan error
	url     string
}

// startCluster builds the nodes and returns once both workers have
// registered. transport is the coordinator's dispatch
// transport (Config.Transport).
func startCluster(transport http.RoundTripper) (*clusterNodes, error) {
	dir, err := scratchDir("cluster")
	if err != nil {
		return nil, err
	}
	store, err := storage.OpenFileLog(filepath.Join(dir, "coordinator.journal"))
	if err != nil {
		return nil, err
	}
	jl := serve.NewJournal(store, serve.DefaultSyncEvery)
	data, err := store.ReadAll()
	if err != nil {
		return nil, err
	}
	c := &clusterNodes{dir: dir, jl: jl, done: make(chan error, 3)}
	c.coord = cluster.New(cluster.Config{
		HedgeAfter: 2 * time.Second, LeaseTimeout: 15 * time.Second, HeartbeatInterval: 500 * time.Millisecond,
		Journal: jl, Recovery: serve.ReplayJournal(data), Transport: transport,
	})
	serveOn := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		hs := &http.Server{Handler: h}
		c.servers = append(c.servers, hs)
		go func() { c.done <- hs.Serve(ln) }()
		return "http://" + ln.Addr().String(), nil
	}
	if c.url, err = serveOn(c.coord.Handler()); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		w := cluster.NewWorker(cluster.WorkerConfig{})
		c.workers = append(c.workers, w)
		addr, err := serveOn(w.Handler())
		if err != nil {
			return nil, err
		}
		if err := cluster.Register(ctx, nil, c.url, addr); err != nil {
			return nil, err
		}
	}
	for c.coord.WorkersLive() < 2 {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("cluster: workers never went live")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return c, nil
}

func (c *clusterNodes) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.servers[0].Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: coordinator http shutdown:", err)
	}
	c.coord.Close()
	for _, hs := range c.servers[1:] {
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: worker http shutdown:", err)
		}
	}
	for range c.servers {
		if err := <-c.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: cluster serve:", err)
		}
	}
	if err := c.jl.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: coordinator journal:", err)
	}
	os.RemoveAll(c.dir)
}

func (c *clusterNodes) coordCount(name string) float64 {
	return float64(c.coord.Metrics().Counter(name, "").Value())
}

func (c *clusterNodes) workerCount(name string) float64 {
	n := 0.0
	for _, w := range c.workers {
		n += float64(w.Metrics().Counter(name, "").Value())
	}
	return n
}

// clusterSpec draws a distinct cluster-grid job: one of clusterTables
// at clusterReps repetitions, at a random seed.
func clusterSpec(g *gen) serve.JobSpec {
	return serve.JobSpec{Kind: serve.JobGrid, Table: clusterTables[g.intn(len(clusterTables))],
		Reps: clusterReps, Seed: g.next() >> 1}
}

// clusterLoad is one client submitting grid jobs in a closed loop, every
// distinct spec twice in a row, so the second is a result-cache hit.
// onSpec sees each spec before it is submitted.
func clusterLoad(url string, window time.Duration, g *gen, tr *tracer, onSpec func(serve.JobSpec)) []jobRec {
	var spec serve.JobSpec
	n := 0
	return closedLoop(url, 1, window, clusterPoll, tr, func(int) serve.JobSpec {
		if n%2 == 0 {
			spec = clusterSpec(g)
		}
		n++
		onSpec(spec)
		return spec
	})
}

// checkCluster verifies every finished job byte for byte against a local
// Runner run of its spec, and the coordinator's rep ledger exactly.
func checkCluster(r *run, c *clusterNodes, recs []jobRec) {
	want := map[serve.JobSpec][]byte{}
	missReps := 0
	for _, j := range recs {
		if !j.ok() {
			continue
		}
		if !j.cacheHit {
			missReps += jobReps(j.spec)
		}
		w, ok := want[j.spec]
		if !ok {
			var err error
			if w, err = gridRef(j.spec); err != nil {
				r.fail("grid %+v: %v", j.spec, err)
				continue
			}
			want[j.spec] = w
		}
		if sha256.Sum256(w) != j.result {
			r.fail("cluster job %+v (cache hit %v): result differs from a local Runner run", j.spec, j.cacheHit)
		}
	}
	got := c.coordCount(experiment.MetricReps) + c.coordCount(experiment.MetricRepsRecovered)
	if int(got) != missReps {
		r.fail("cluster rep ledger: %v reps merged, finished cache-miss jobs hold %d", got, missReps)
	}
}

// timedTransport is the traced run's Config.Transport: it records a span
// around every unit dispatch, under the run id of the job in flight.
type timedTransport struct {
	tr  *tracer
	mu  sync.Mutex
	run string
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if strings.HasSuffix(req.URL.Path, "/execute") {
		t.mu.Lock()
		run := t.run
		t.mu.Unlock()
		t.tr.add(0, run, "cluster.dispatch", t0, time.Now())
	}
	return resp, err
}

// clusterLayers runs the cluster-grid load traced for window and
// reports the cluster layer's metrics and the remote-unit path's.
func clusterLayers(r *run, window time.Duration) error {
	tt := &timedTransport{tr: r.tr}
	c, err := startCluster(tt)
	if err != nil {
		return err
	}
	defer c.close()
	recs := clusterLoad(c.url, window, newGen(r.seed, 100), r.tr, func(spec serve.JobSpec) {
		tt.mu.Lock()
		tt.run = fmt.Sprintf("%s/%d", spec.Table, spec.Seed)
		tt.mu.Unlock()
	})
	account(r, recs)
	checkCluster(r, c, recs)
	misses := 0
	for _, j := range recs {
		if j.ok() && !j.cacheHit {
			misses++
		}
	}
	dispatched := c.coordCount(cluster.MetricUnitsDispatched)
	banked := c.coordCount(cluster.MetricUnitsCompleted)
	r.set("cluster.dispatch_ms_p50", median(r.tr.durationsMS("cluster.dispatch")))
	r.set("cluster.worker_503_per_job", ratio(c.workerCount(cluster.MetricWorkerBusy), float64(misses)))
	r.set("cluster.units_per_job", ratio(banked, float64(misses)))
	r.set("cluster.useful_dispatch_ratio", ratio(banked, dispatched))
	r.set("cluster.cache_hit_ratio", ratio(c.coordCount(cluster.MetricCacheHits), c.coordCount(cluster.MetricJobsAccepted)))
	if len(recs) > 0 {
		execUnits(r, recs[0].spec)
	}
	return nil
}

// execUnits runs every unit of spec through experiment.ExecUnit the way
// a cluster worker does (fresh contexts per call), folds the shards
// through the codec and the merge, and checks the folded cells against
// a local Runner run.
func execUnits(r *run, spec serve.JobSpec) {
	t, err := experiment.TableByID(spec.Table)
	if err != nil {
		r.fail("%v", err)
		return
	}
	tbl, err := experiment.Runner{Reps: spec.Reps, Seed: spec.Seed}.RunTable(t)
	if err != nil {
		r.fail("local run of %+v: %v", spec, err)
		return
	}
	const unitReps = 2000 // the coordinator's default
	var exec time.Duration
	var shard stats.Shard
	for ri, row := range tbl.Rows {
		for col := range t.Schemes() {
			var agg stats.Shard
			for start := 0; start < spec.Reps; start += unitReps {
				end := min(start+unitReps, spec.Reps)
				t0 := time.Now()
				data, err := experiment.ExecUnit(context.Background(), t, col, row.U, row.Lambda, spec.Seed, start, end)
				t1 := time.Now()
				r.tr.add(0, fmt.Sprintf("units/%s/%d/%d", t.ID, ri, col), "experiment.exec_unit", t0, t1)
				exec += t1.Sub(t0)
				if err == nil {
					err = shard.UnmarshalBinary(data)
				}
				if err != nil {
					r.fail("unit %s col %d [%d,%d): %v", t.ID, col, start, end, err)
					return
				}
				agg.Merge(&shard)
			}
			if got, w := pass.Exact(agg.Summary()), pass.Exact(row.Cells[col].Summary); got != w {
				r.fail("units of %s U=%g λ=%g col %d fold to %s, Runner %s", t.ID, row.U, row.Lambda, col, got, w)
			}
		}
	}
	reps := len(tbl.Rows) * len(t.Schemes()) * spec.Reps
	r.set("experiment.exec_unit_ns_per_rep", ratio(float64(exec), float64(reps)))
}
