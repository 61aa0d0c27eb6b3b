package core

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/rng"
	"repro/internal/sim"
)

// TestRunCtxMatchesRun pins the tentpole refactor's contract: running a
// scheme through a warm, reused RunContext returns results bit-identical
// to the fresh-allocation Run path, for every scheme family, across
// cells with different parameters sharing one context.
func TestRunCtxMatchesRun(t *testing.T) {
	schemes := []sim.ContextScheme{
		NewPoissonScheme(1),
		NewKFTScheme(1),
		NewADTDVS(),
		NewAdaptDVSSCP(),
		NewAdaptDVSCCP(),
		NewAdaptSCP(1),
		NewAdaptCCP(2),
		NewAdaptDVSSCP().WithOnlineLambda(0.001),
		NewAdaptDVSSCP().WithEagerDVS(),
	}
	cells := []sim.Params{
		params(0.78, 1, 0.0014, 5, checkpoint.SCPSetting()),
		params(0.80, 1, 0.0016, 5, checkpoint.CCPSetting()),
		params(0.92, 1, 2e-4, 1, checkpoint.SCPSetting()),
		params(0.78, 1, 0, 5, checkpoint.SCPSetting()), // faultless
	}

	// One context serves every (scheme, cell) pair in sequence — the
	// worker's view — so cache reuse across cell switches is exercised.
	rctx := sim.NewRunContext()
	for _, s := range schemes {
		for ci, p := range cells {
			for seed := uint64(1); seed <= 20; seed++ {
				want := s.Run(p, rng.New(seed))
				got := s.RunCtx(rctx, p, rctx.Reseed(seed))
				if want != got {
					t.Fatalf("%s cell %d seed %d: RunCtx diverged from Run:\nfresh %+v\nctx   %+v",
						s.Name(), ci, seed, want, got)
				}
			}
		}
	}
}

// TestPlannerMemoHitsFaultFree pins the memo economics the refactor is
// built on: fault-free repetitions of one cell share a single plan key,
// so the planner computes once and replays.
func TestPlannerMemoHitsFaultFree(t *testing.T) {
	s := NewAdaptDVSSCP()
	p := params(0.78, 1, 0, 5, checkpoint.SCPSetting()) // λ=0: no faults, no replans
	rctx := sim.NewRunContext()
	for seed := uint64(1); seed <= 50; seed++ {
		s.RunCtx(rctx, p, rctx.Reseed(seed))
	}
	pm, ok := rctx.Scratch().(*plannerMemo)
	if !ok || len(pm.pls) == 0 {
		t.Fatal("no planner pooled in context scratch")
	}
	if len(pm.pls) != 1 {
		t.Fatalf("one cell pooled %d planners, want exactly 1", len(pm.pls))
	}
	if n := pm.pls[0].MemoLen(); n != 1 {
		t.Errorf("fault-free cell cached %d plans, want exactly 1", n)
	}
}

// TestPlannerMemoIsExactInput verifies a planner returns bit-identical
// plans for repeated inputs and distinguishes every changed input.
func TestPlannerMemoIsExactInput(t *testing.T) {
	p := params(0.78, 1, 0.0014, 5, checkpoint.SCPSetting())
	pl := NewAdaptDVSSCP().plannerFor(sim.NewRunContext(), p)

	base := pl.Plan(p.Task.Cycles, p.Task.Deadline, p.Lambda, 5)
	again := pl.Plan(p.Task.Cycles, p.Task.Deadline, p.Lambda, 5)
	if base != again {
		t.Fatalf("identical inputs, different plans: %+v vs %+v", base, again)
	}

	fresh := NewPlanner(*NewAdaptDVSSCP(), p.CPUModel(), p.Costs, p.Task) // uncached
	if got := fresh.Plan(p.Task.Cycles, p.Task.Deadline, p.Lambda, 5); got != base {
		t.Fatalf("memoised plan differs from fresh computation: %+v vs %+v", base, got)
	}

	// A changed input keys separately (the plans themselves may or may
	// not coincide — the interval rules are piecewise).
	pl.Plan(p.Task.Cycles, p.Task.Deadline-1, p.Lambda, 5)
	if pl.MemoLen() != 2 {
		t.Errorf("memo holds %d entries, want 2", pl.MemoLen())
	}
}

// TestPlannerBadFixedFrequency pins the construction-time resolution of
// an unsatisfiable fixed-speed configuration.
func TestPlannerBadFixedFrequency(t *testing.T) {
	p := params(0.78, 1, 0.0014, 5, checkpoint.SCPSetting())
	pl := NewPlanner(Adaptive{Sub: checkpoint.SCP, UseSub: true, FixedFreq: 3}, cpu.TwoSpeed(), p.Costs, p.Task)
	if pln := pl.Plan(p.Task.Cycles, p.Task.Deadline, p.Lambda, 5); !pln.BadConfig {
		t.Fatalf("frequency 3 on the two-speed model planned %+v, want BadConfig", pln)
	}
}

// TestPlannerScratchInvalidation: a context that served one cell must
// never hand a stale planner to a different scheme configuration or
// platform — and the pool must hand the original planner back when the
// first configuration returns. Planners sharing the context's plan
// cache must never read each other's plans for the same state.
func TestPlannerScratchInvalidation(t *testing.T) {
	rctx := sim.NewRunContext()
	pA := params(0.78, 1, 0.0014, 5, checkpoint.SCPSetting())
	pB := params(0.80, 1, 0.0014, 5, checkpoint.CCPSetting())

	NewAdaptDVSSCP().RunCtx(rctx, pA, rctx.Reseed(1))
	pm, _ := rctx.Scratch().(*plannerMemo)
	if pm == nil || len(pm.pls) == 0 {
		t.Fatal("planner not pooled in scratch")
	}
	plA := pm.pls[0]
	if len(pm.sets) != planSetsCell {
		t.Fatalf("one-cell context holds %d cache sets, want %d", len(pm.sets), planSetsCell)
	}

	NewAdaptDVSCCP().RunCtx(rctx, pB, rctx.Reseed(1))
	if pm.pls[0] == plA {
		t.Fatal("context reused a planner across different scheme/cell configurations")
	}
	if len(pm.sets) != planSets {
		t.Fatalf("two-planner context holds %d cache sets, want %d", len(pm.sets), planSets)
	}

	// Returning to the first configuration must surface the pooled
	// planner again (MRU front) and plan identically to a fresh run.
	r1 := NewAdaptDVSSCP().RunCtx(rctx, pA, rctx.Reseed(7))
	r2 := NewAdaptDVSSCP().Run(pA, rng.New(7))
	if r1 != r2 {
		t.Fatalf("after scratch churn, RunCtx diverged: %+v vs %+v", r1, r2)
	}
	if pm.pls[0] != plA {
		t.Fatal("returning configuration rebuilt its planner instead of reusing the pooled one")
	}

	// Two configurations planning the identical (rc, rd, λ, rf) through
	// the shared cache: only the planner id tells their entries apart.
	slow, fast := NewAdaptSCP(1), NewAdaptSCP(2)
	plSlow, plFast := slow.plannerFor(rctx, pA), fast.plannerFor(rctx, pA)
	rc, rd := pA.Task.Cycles, pA.Task.Deadline
	for pass := 0; pass < 2; pass++ { // pass 1 replays from the cache
		for _, c := range []struct {
			s  *Adaptive
			pl *Planner
		}{{slow, plSlow}, {fast, plFast}} {
			want := NewPlanner(*c.s, pA.CPUModel(), pA.Costs, pA.Task).Plan(rc, rd, pA.Lambda, 5)
			if got := c.pl.Plan(rc, rd, pA.Lambda, 5); got != want {
				t.Fatalf("%s pass %d: shared cache served %+v, want %+v", c.s.Name(), pass, got, want)
			}
		}
	}
	if plSlow.Plan(rc, rd, pA.Lambda, 5) == plFast.Plan(rc, rd, pA.Lambda, 5) {
		t.Fatal("f=1 and f=2 planned identically: the shared-state check proves nothing")
	}
}

// TestPlannerCacheStats pins the telemetry counters: fault-free
// repetitions of one cell hit the plan cache after the first miss, and
// the context-lifetime totals survive a planner rebuild on cell switch.
func TestPlannerCacheStats(t *testing.T) {
	rctx := sim.NewRunContext()
	if h, m := PlannerCacheStats(rctx); h != 0 || m != 0 {
		t.Fatalf("fresh context reports %d/%d, want 0/0", h, m)
	}

	s := NewAdaptDVSSCP()
	p := params(0.78, 1, 0, 5, checkpoint.SCPSetting()) // λ=0: one plan key per rep
	const reps = 50
	for seed := uint64(1); seed <= reps; seed++ {
		s.RunCtx(rctx, p, rctx.Reseed(seed))
	}
	hits, misses := PlannerCacheStats(rctx)
	if hits+misses == 0 {
		t.Fatal("no lookups counted")
	}
	if misses >= hits {
		t.Errorf("fault-free cell: %d misses vs %d hits — memo not paying", misses, hits)
	}

	// Switching cells rebuilds the planner; the totals must carry over,
	// never reset.
	s2 := NewAdaptDVSCCP()
	p2 := params(0.80, 1, 0.0014, 5, checkpoint.CCPSetting())
	s2.RunCtx(rctx, p2, rctx.Reseed(1))
	h2, m2 := PlannerCacheStats(rctx)
	if h2 < hits || m2 <= misses {
		t.Errorf("cache stats went backwards across a cell switch: %d/%d then %d/%d",
			hits, misses, h2, m2)
	}

	// The pooled planners' own counters agree with what the context
	// served (nothing retired yet at two pooled planners).
	pm, _ := rctx.Scratch().(*plannerMemo)
	if pm == nil {
		t.Fatal("no planner pooled")
	}
	var ph, pmiss uint64
	for _, pl := range pm.pls {
		h, m := pl.CacheStats()
		ph, pmiss = ph+h, pmiss+m
	}
	if pm.hits+ph != h2 || pm.misses+pmiss != m2 {
		t.Errorf("carryover bookkeeping inconsistent: retired %d/%d + pooled %d/%d != totals %d/%d",
			pm.hits, pm.misses, ph, pmiss, h2, m2)
	}
}
