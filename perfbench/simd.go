package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/task"
)

// pollEvery is the simd-mixed clients' fixed poll interval.
const pollEvery = time.Millisecond

// gridReps is the repetitions per cell of a simd-mixed grid job.
const gridReps = 300

// simd is an in-process serve.Server configured as `simd` runs it by
// default, with its FileLog journal in a scratch directory, behind a
// loopback listener.
type simd struct {
	dir  string
	jl   *serve.Journal
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startSimd() (*simd, error) {
	dir, err := scratchDir("simd")
	if err != nil {
		return nil, err
	}
	store, err := storage.OpenFileLog(filepath.Join(dir, "simd.journal"))
	if err != nil {
		return nil, err
	}
	jl := serve.NewJournal(store, serve.DefaultSyncEvery)
	data, err := store.ReadAll()
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{
		QueueDepth: 64, Workers: 4, GridWorkers: 1,
		DefaultTimeout: time.Minute, MaxTimeout: 10 * time.Minute, MaxRetries: 2,
		Journal: jl, Recovery: serve.ReplayJournal(data),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &simd{dir: dir, jl: jl, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	// First submittable work: the admission endpoint answers ready.
	c := newClient(1)
	for {
		resp, err := c.Get(s.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (s *simd) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: simd drain:", err)
	}
	if err := s.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: simd http shutdown:", err)
	}
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: simd serve:", err)
	}
	if err := s.jl.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: simd journal:", err)
	}
	os.RemoveAll(s.dir)
}

var singleSchemes = []string{"Poisson", "k-f-t", "A_D", "A_D_S", "A_D_C"}

// gridTables are the sub-tables simd-mixed grid jobs draw from: the four
// (a) tables, which all have 32 cells, so that grid latency has one mode
// whose median is steady.
var gridTables = []string{"1a", "2a", "3a", "4a"}

// simdSpec draws one job of the simd-mixed mix: 9 in 10 single
// trajectories over varied schemes, settings, U, λ and k, 1 in 10 a
// paper sub-table at gridReps repetitions.
func simdSpec(g *gen) serve.JobSpec {
	if g.intn(10) == 0 {
		return serve.JobSpec{Kind: serve.JobGrid, Table: gridTables[g.intn(len(gridTables))],
			Reps: gridReps, Seed: g.next() >> 1}
	}
	return serve.JobSpec{
		Kind:    serve.JobSingle,
		Scheme:  singleSchemes[g.intn(len(singleSchemes))],
		Setting: []string{"scp", "ccp"}[g.intn(2)],
		U:       math.Round(g.float(0.70, 0.90)*100) / 100,
		Lambda:  g.float(0.0005, 0.002),
		K:       []int{1, 5}[g.intn(2)],
		Seed:    g.next() >> 1,
	}
}

// jobRec is one closed-loop request as its client saw it.
type jobRec struct {
	spec      serve.JobSpec
	status    int // of the submission
	state     string
	latency   time.Duration // submit to observed terminal state
	submit    time.Duration // the POST round trip
	elapsedMS int64         // the server's own execution time
	cacheHit  bool
	// result is the SHA-256 of the compacted result JSON: the records
	// outlive the window, and holding every result would inflate the
	// process's peak RSS, which the run reports.
	result [sha256.Size]byte
}

func (j jobRec) ok() bool { return j.status == http.StatusAccepted && j.state == "done" }

// closedLoop runs n clients, each submitting its next job only after the
// previous one reached a terminal state, until the window closes, and
// returns every request. poll is the fixed poll interval; next draws
// the client's next spec.
func closedLoop(url string, n int, window time.Duration, poll time.Duration, tr *tracer, next func(client int) serve.JobSpec) []jobRec {
	c := newClient(n)
	var (
		mu   sync.Mutex
		recs []jobRec
		wg   sync.WaitGroup
	)
	stop := time.Now().Add(window)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				rec := request(c, url, next(client), poll, tr)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return recs
}

// request submits spec and polls it to a terminal state.
func request(c *http.Client, url string, spec serve.JobSpec, poll time.Duration, tr *tracer) jobRec {
	rec := jobRec{spec: spec}
	root := tr.id()
	t0 := time.Now()
	status, v, err := call(c, http.MethodPost, url+"/v1/jobs", spec)
	t1 := time.Now()
	rec.status, rec.submit = status, t1.Sub(t0)
	run := v.ID // the job id: every span of the request carries it
	tr.add(root, run, "serve.submit", t0, t1)
	if err != nil || status != http.StatusAccepted {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: submit:", err)
		}
		rec.latency = failLatency
		return rec
	}
	for !terminal(v.State) && time.Since(t0) < failLatency {
		time.Sleep(poll)
		p0 := time.Now()
		status, v, err = call(c, http.MethodGet, url+"/v1/jobs/"+run, nil)
		tr.add(root, run, "serve.poll", p0, time.Now())
		if err != nil || status != http.StatusOK {
			fmt.Fprintf(os.Stderr, "perfbench: poll: status %d: %v\n", status, err)
			break
		}
	}
	end := time.Now()
	tr.record(root, 0, run, "serve.job."+string(spec.Kind), t0, end)
	rec.state, rec.elapsedMS, rec.cacheHit = v.State, v.ElapsedMS, v.CacheHit
	rec.result = sha256.Sum256(compact(v.Result))
	rec.latency = end.Sub(t0)
	if !rec.ok() {
		fmt.Fprintf(os.Stderr, "perfbench: job %s ended %q: %s\n", run, v.State, v.Error)
		rec.latency = failLatency
	}
	return rec
}

// simdOutcome is one closed-loop window against a fresh server.
type simdOutcome struct {
	srv  *simd
	recs []jobRec
}

func (o simdOutcome) count(name string) float64 {
	return float64(o.srv.srv.Metrics().Counter(name, "").Value())
}

// simdLoad starts a server and runs the closed loop against it for the
// window; the caller closes o.srv.
func simdLoad(r *run, window time.Duration, tr *tracer) (simdOutcome, error) {
	s, err := startSimd()
	if err != nil {
		return simdOutcome{}, err
	}
	n := clients()
	gens := make([]*gen, n)
	for i := range gens {
		gens[i] = newGen(r.seed, uint64(i))
	}
	recs := closedLoop(s.url, n, window, pollEvery, tr, func(i int) serve.JobSpec { return simdSpec(gens[i]) })
	return simdOutcome{srv: s, recs: recs}, nil
}

// account adds the requests to the run's ledger.
func account(r *run, recs []jobRec) {
	for _, j := range recs {
		r.attempted++
		if !j.ok() {
			r.failed++
		}
	}
}

// jobReps is the repetitions a job simulates: one for a single
// trajectory, cells × reps for a grid.
func jobReps(spec serve.JobSpec) int {
	if spec.Kind != serve.JobGrid {
		return 1
	}
	t, err := experiment.TableByID(spec.Table)
	if err != nil {
		return 0
	}
	return len(t.Us) * len(t.Lambdas) * len(t.Schemes()) * spec.Reps
}

// checkSimd verifies every completed job's result byte for byte against
// a local computation — a single trajectory run locally, a grid through
// a local Runner — and the server's rep and job ledgers exactly.
func checkSimd(r *run, o simdOutcome) {
	gridRepsDone, done := 0, 0
	for _, j := range o.recs {
		if !j.ok() {
			continue
		}
		done++
		var want []byte
		var err error
		if j.spec.Kind == serve.JobGrid {
			gridRepsDone += jobReps(j.spec)
			want, err = gridRef(j.spec)
		} else {
			want, err = singleRef(j.spec)
		}
		if err != nil {
			r.fail("%s job %+v: %v", j.spec.Kind, j.spec, err)
		} else if sha256.Sum256(want) != j.result {
			r.fail("%s job %+v: result differs from a local computation %s", j.spec.Kind, j.spec, want)
		}
	}
	if got := o.count(experiment.MetricReps); int(got) != gridRepsDone {
		r.fail("simd rep ledger: %s = %v, completed grid jobs hold %d reps", experiment.MetricReps, got, gridRepsDone)
	}
	if got := o.count("simd_jobs_completed_total"); int(got) != done {
		r.fail("simd job ledger: %v completed, clients saw %d", got, done)
	}
}

// singleRef computes a single-trajectory job locally the way the
// service defines it — the scheme at f1 baselines, the golden
// parameterisation, a fresh source at the job seed — and renders it.
func singleRef(spec serve.JobSpec) ([]byte, error) {
	var s sim.Scheme
	switch spec.Scheme {
	case "Poisson":
		s = core.NewPoissonScheme(1)
	case "k-f-t":
		s = core.NewKFTScheme(1)
	case "A_D":
		s = core.NewADTDVS()
	case "A_D_S":
		s = core.NewAdaptDVSSCP()
	case "A_D_C":
		s = core.NewAdaptDVSCCP()
	default:
		return nil, fmt.Errorf("unknown scheme %q", spec.Scheme)
	}
	tk, err := task.FromUtilization("serve", spec.U, 1, experiment.Deadline, spec.K)
	if err != nil {
		return nil, err
	}
	costs := checkpoint.SCPSetting()
	if spec.Setting == "ccp" {
		costs = checkpoint.CCPSetting()
	}
	res := s.Run(sim.Params{Task: tk, Costs: costs, Lambda: spec.Lambda}, rng.New(spec.Seed))
	return json.Marshal(serve.SingleResult{
		Scheme: s.Name(), Completed: res.Completed, Reason: string(res.Reason),
		Time: res.Time, Energy: res.Energy,
		TimeBits: math.Float64bits(res.Time), EnergyBits: math.Float64bits(res.Energy),
		Faults: res.Faults, Detections: res.Detections,
		CSCPs: res.CSCPs, Subs: res.SubCheckpoints, Switches: res.Switches,
	})
}

// gridRef renders a grid job's result from a local Runner run.
func gridRef(spec serve.JobSpec) ([]byte, error) {
	t, err := experiment.TableByID(spec.Table)
	if err != nil {
		return nil, err
	}
	tbl, err := experiment.Runner{Reps: spec.Reps, Seed: spec.Seed}.RunTable(t)
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.GridResultFromTable(tbl))
}

// serviceWindow and clusterWindow are how long serviceLayers drives the
// simd-mixed and the cluster-grid load.
const (
	serviceWindow = 5 * time.Second
	clusterWindow = 6 * time.Second
)

// serviceLayers measures the service's layers: a traced window of the
// simd-mixed load, the fsync probe, then a traced window of the
// cluster-grid load — the same service in its coordinator/worker roles.
func serviceLayers(r *run) error {
	if err := tracedSimdWindow(r, serviceWindow); err != nil {
		return err
	}
	return clusterLayers(r, clusterWindow)
}

// tracedSimdWindow is the traced closed-loop window: per-job spans and
// the serve, journal and storage metrics.
func tracedSimdWindow(r *run, window time.Duration) error {
	o, err := simdLoad(r, window, r.tr)
	if err != nil {
		return err
	}
	defer o.srv.close()
	account(r, o.recs)
	checkSimd(r, o)
	var submit, wait []float64
	exec := map[serve.JobKind][]float64{}
	for _, j := range o.recs {
		if !j.ok() {
			continue
		}
		submit = append(submit, float64(j.submit)/1e6)
		exec[j.spec.Kind] = append(exec[j.spec.Kind], float64(j.elapsedMS))
		wait = append(wait, float64(j.latency-j.submit)/1e6-float64(j.elapsedMS))
	}
	r.set("serve.submit_ms_p50", median(submit))
	r.set("serve.exec_ms_p50.single", median(exec[serve.JobSingle]))
	r.set("serve.exec_ms_p50.grid", median(exec[serve.JobGrid]))
	r.set("serve.wait_ms_p50", median(wait))
	accepted := o.count("simd_jobs_accepted_total")
	r.set("serve.journal_syncs_per_job", ratio(o.count("simd_journal_syncs_total"), accepted))
	r.set("serve.journal_bytes_per_job", ratio(o.count("simd_journal_bytes_total"), accepted))
	frame := ratio(o.count("simd_journal_bytes_total"), o.count("simd_journal_records_total"))
	fsyncProbe(r, o.srv.dir, max(int(frame), 1))
	return nil
}

// fsyncProbe appends and syncs 200 journal-record-sized frames to a
// FileLog in dir, the journal's own directory.
func fsyncProbe(r *run, dir string, frame int) {
	fl, err := storage.OpenFileLog(filepath.Join(dir, "fsync-probe.log"))
	if err != nil {
		r.fail("fsync probe: %v", err)
		return
	}
	defer fl.Close()
	payload := make([]byte, frame)
	var ms []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		_, err := fl.Append(payload)
		if err == nil {
			err = fl.Sync()
		}
		t1 := time.Now()
		if err != nil {
			r.fail("fsync probe: %v", err)
			return
		}
		r.tr.add(0, "fsync", "storage.append_sync", t0, t1)
		ms = append(ms, float64(t1.Sub(t0))/1e6)
	}
	r.set("storage.fsync_ms_p50", median(ms))
}
