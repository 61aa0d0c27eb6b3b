package core

import (
	"math"

	"repro/internal/analysis"
	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

// Plan is one planning decision of an adaptive scheme: the operating
// point to run at, the CSCP interval and the sub-interval length (equal
// to Interval when no additional checkpoints are used). BadConfig marks
// a configuration the platform cannot satisfy (a fixed frequency the CPU
// model lacks); the run then fails with sim.FailBadConfig instead of
// panicking.
type Plan struct {
	Point     cpu.OperatingPoint
	Interval  float64
	SubLen    float64
	BadConfig bool
}

// planSets × planWays is the plan cache's entry count, sized to hold a
// full published sub-table's planning states: Table 1a at the bench
// harness's 50 reps/cell visits ~7k distinct states, and since entries
// persist across table runs (planner-id keys, pooled worker contexts) a
// steady-state re-run hits on everything that fits — 16k entries turn
// the re-run miss rate from capacity-bound (~80% at 4k entries) into
// conflict-only. Two ways per set keep the recurring classes of a
// fault-dense cell resident when a colliding first-sighting state would
// otherwise evict them. At 64 bytes an entry the array is 1 MiB per run
// context, shared by every planner the context pools.
//
// A context with one pooled planner serves one cell (a sweep point, a
// mission, a Monte-Carlo call) and holds planSetsCell sets, 16 KiB; its
// second planner grows the cache to full size, dropping its entries. A
// fresh 1 MiB array per such context cost more than it saved (DESIGN.md
// §17, "One plan cache for both paths").
//
// The cache is deliberately not a Go map: post-fault replans key on
// continuous rd values and are mostly unique, so with a map the
// runtime's hashing and insertion machinery dominated the planning cost
// it was meant to save. A set-associative array with a few-instruction
// hash makes a hit ~free and a miss only an overwrite.
const (
	planSets     = 8192
	planSetsCell = 128
	planWays     = 2
)

// planSet is one set of a run context's plan cache.
type planSet [planWays]planEntry

// planEntry is one cache way, one 64-byte cache line. It keys on the
// exact planning input — rc, rd and λ as raw float bits (every distinct
// value, negative zeros and NaNs included, keys separately), the fault
// budget rf, and the id of the planner, which stands for everything
// else a plan depends on — and holds the plan, its operating point as
// an index into the model's point list (badConfigIdx: BadConfig). Ids
// keep the context's planners apart and let entries survive cell
// switches. Id 0 marks an empty way.
type planEntry struct {
	rc, rd, lam uint64
	rf          int64
	id          uint64
	itv, sub    float64
	pt          int32
	_           int32
}

// badConfigIdx is the point index of a BadConfig plan.
const badConfigIdx = -1

// subEnvCap bounds the pool of per-environment NumSub memos. With the
// paper's two-speed processor and a fixed λ there are at most two
// environments; online λ estimation makes the rate continuous, at which
// point pooling stops paying and the planner computes directly.
const subEnvCap = 16

// Planner computes interval plans for an Adaptive scheme: the speed
// decision (paper §3), the DATE'03 interval() procedure and the optimal
// sub-interval count of Fig. 2. A planner pooled in a RunContext
// memoises whole plans on their exact inputs (rc, rd, λ, rf) in the
// context's plan cache, so the overwhelmingly common fault-free
// repetition of a Monte-Carlo cell plans once and replays the cached
// decision bit-for-bit, on the scalar and the batch path alike. A
// planner built outside a context computes every plan.
//
// A Planner is not safe for concurrent use; schemes park one per worker
// in the RunContext scratch slot.
type Planner struct {
	cfg   Adaptive
	model *cpu.Model
	costs checkpoint.Costs
	task  task.Task

	// Fixed-speed configuration, resolved once at construction: the
	// point index of cfg.FixedFreq, or badConfigIdx.
	fixedIdx int32

	// memo is the owning context's planner pool, which holds the plan
	// cache (nil outside a context), and id this planner's key in it.
	memo *plannerMemo
	id   uint64
	subs []subEnv
	envs []itvEnv

	// Speed-decision precomputation: TEst(rc, f, c, λ) factors as
	// (rc/f)·(1+s)/(1-s) with s = sqrt(λ·c/f) constant per (point, λ).
	// te caches (1+s) and (1-s) per operating point for the λ it was
	// built against, so the per-plan feasibility test costs one divide,
	// one multiply and one divide instead of a sqrt chain per point.
	teLam uint64
	teOK  bool
	te    []tePoint

	// hits/misses count plan-cache lookups (uncached lookups count as
	// misses). Plain fields, not atomics: a Planner is single-goroutine,
	// and the increment must cost nothing against the few-instruction
	// cache hit it measures.
	hits, misses uint64
}

// tePoint is one operating point's precomputed TEst factors. A point
// with oneMinus ≤ 0 has s ≥ 1 (TEst = +Inf): never feasible.
type tePoint struct {
	pt       cpu.OperatingPoint
	onePlus  float64 // 1 + sqrt(λ·c/f), the exact double TEst computes
	oneMinus float64 // 1 - sqrt(λ·c/f)
}

// subEnv pairs one (frequency, λ) environment — keyed on exact float
// bits — with its NumSub memo; the pool is a linear-scanned slice
// because it holds at most a handful of entries (two for the paper's
// processor at fixed λ).
type subEnv struct {
	f, lam uint64
	sm     *analysis.SubMemo
}

// itvEnv pairs one (frequency, λ) environment with its precomputed
// policy.Env — the Fig. 4 interval constants for the wall-clock
// checkpoint cost at that speed. Same linear-scanned-pool shape as
// subEnv, and for the same reason: a planner sees at most a handful of
// (f, λ) pairs over its whole life.
type itvEnv struct {
	f, lam uint64
	env    policy.Env
}

// planHash hashes a planning state for its cache set with a few
// multiplies — the whole point over a map is that this costs
// nanoseconds.
func planHash(rc, rd, lam uint64, rf int64) uint64 {
	h := rc*0x9e3779b97f4a7c15 ^ rd*0xbf58476d1ce4e5b9 ^ lam*0x94d049bb133111eb ^ uint64(rf)
	h ^= h >> 29
	h *= 0xff51afd7ed558ccd
	return h >> 33
}

// NewPlanner builds a planner for one scheme configuration over one
// platform (CPU model, cost model, task). The fault rate is not part of
// the construction state — it is a per-plan input, so one planner serves
// a whole λ sweep.
func NewPlanner(cfg Adaptive, model *cpu.Model, costs checkpoint.Costs, tk task.Task) *Planner {
	pl := &Planner{
		cfg:      cfg,
		model:    model,
		costs:    costs,
		task:     tk,
		fixedIdx: badConfigIdx,
	}
	if !cfg.DVS {
		for i, pt := range model.Points() {
			if pt.Freq == cfg.FixedFreq {
				pl.fixedIdx = int32(i)
				break
			}
		}
	}
	return pl
}

// MemoLen returns the number of plan-cache entries this planner holds
// (for tests and diagnostics).
func (pl *Planner) MemoLen() int {
	if pl.memo == nil {
		return 0
	}
	n := 0
	for _, set := range pl.memo.sets {
		for _, ent := range set {
			if ent.id == pl.id {
				n++
			}
		}
	}
	return n
}

// Plan returns the planning decision for the exact state (rc remaining
// work in cycles, rd remaining deadline in wall time, lam the planning
// fault rate, rf the remaining fault budget), from cache when the state
// has been planned before. Memoisation is exact-input: equal bits in,
// bit-identical plan out.
func (pl *Planner) Plan(rc, rd, lam float64, rf int) Plan {
	itv, sub, pt := pl.lookup(rc, rd, lam, rf)
	if pt == badConfigIdx {
		return Plan{BadConfig: true}
	}
	return Plan{Point: pl.model.Points()[pt], Interval: itv, SubLen: sub}
}

// lookup is the plan-cache consultation behind both Plan and the batch
// kernel: the plan for the exact state as (interval, sub-interval,
// point index into model.Points()), computed on a miss. Way 0 holds
// proven-reused entries (a way-1 hit promotes by swap), way 1 takes
// fresh insertions, so the repeat path stays one compare.
func (pl *Planner) lookup(rc, rd, lam float64, rf int) (itv, sub float64, pt int32) {
	if pl.memo == nil {
		pl.misses++
		return pl.compute(rc, rd, lam, rf)
	}
	rcb, rdb, lb, rf64 := math.Float64bits(rc), math.Float64bits(rd), math.Float64bits(lam), int64(rf)
	sets := pl.memo.sets
	set := &sets[planHash(rcb, rdb, lb, rf64)&uint64(len(sets)-1)]
	ent := &set[0]
	if ent.rc == rcb && ent.rd == rdb && ent.lam == lb && ent.rf == rf64 && ent.id == pl.id {
		pl.hits++
		return ent.itv, ent.sub, ent.pt
	}
	alt := &set[1]
	if alt.rc == rcb && alt.rd == rdb && alt.lam == lb && alt.rf == rf64 && alt.id == pl.id {
		*ent, *alt = *alt, *ent // promote the hit to MRU
		pl.hits++
		return ent.itv, ent.sub, ent.pt
	}
	pl.misses++
	itv, sub, pt = pl.compute(rc, rd, lam, rf)
	// Insert into an empty way 0 first, otherwise overwrite way 1 — the
	// LRU way, since hits promote to way 0 by swap. Never displacing way
	// 0 on a miss is what lets a set retain two states that each recur
	// only once per table run (the steady-state re-run pattern) instead
	// of the last-inserted one evicting the other forever.
	if ent.id == 0 {
		alt = ent
	}
	*alt = planEntry{rc: rcb, rd: rdb, lam: lb, rf: rf64, id: pl.id, itv: itv, sub: sub, pt: pt}
	return itv, sub, pt
}

// CacheStats returns the lookup counters accumulated by this planner.
func (pl *Planner) CacheStats() (hits, misses uint64) { return pl.hits, pl.misses }

// compute is the uncached planning procedure — the logic previously
// inlined in Adaptive.Run, expression for expression, so the cached
// refactor stays bit-for-bit equivalent to the seed behaviour. It
// returns the plan as lookup does.
func (pl *Planner) compute(rc, rd, lam float64, rf int) (itv, sub float64, pt int32) {
	s := &pl.cfg
	if s.DVS {
		// The degenerate rc ≤ 0 corner (handled below) must not reach
		// TEst, which requires non-negative work; clamping leaves every
		// rc > 0 state untouched.
		pt = pl.pickSpeedPre(lam, math.Max(rc, 0), rd)
	} else {
		if pl.fixedIdx == badConfigIdx {
			return 0, 0, badConfigIdx
		}
		pt = pl.fixedIdx
	}
	f := pl.model.Points()[pt].Freq
	if rd <= 0 || rc <= 0 {
		deg := math.Max(rc/f, sim.EpsWork)
		return deg, deg, pt
	}
	itv, _ = pl.envFor(f, lam).Interval(rd, rc/f, rf)
	itv = math.Min(itv, rc/f)
	sub = itv
	if s.UseSub {
		sub = itv / float64(pl.numSub(f, lam, itv))
	}
	return itv, sub, pt
}

// pickSpeedPre is Adaptive.pickSpeed over the planner's precomputed
// TEst factors: the index of the slowest operating point with
// (rc/f)·(1+s)/(1-s) ≤ rd — the identical doubles TEst produces, since
// (1+s) and (1-s) are cached verbatim — or of the fastest point if none
// fits. The factor table is rebuilt whenever the planning λ changes
// (only online-λ schemes change it within a planner's lifetime).
func (pl *Planner) pickSpeedPre(lam, rc, rd float64) int32 {
	if lb := math.Float64bits(lam); !pl.teOK || pl.teLam != lb {
		pl.buildTE(lam, lb)
	}
	for i := range pl.te {
		e := &pl.te[i]
		if e.oneMinus > 0 && ((rc/e.pt.Freq)*e.onePlus)/e.oneMinus <= rd {
			return int32(i)
		}
	}
	return int32(len(pl.te) - 1)
}

// buildTE fills the TEst factor table for one planning λ. The s ≥ 1
// (and NaN) divergence TEst reports as +Inf maps to oneMinus ≤ 0, which
// pickSpeedPre treats as never-feasible — the same verdict +Inf ≤ rd
// reaches.
func (pl *Planner) buildTE(lam float64, lamBits uint64) {
	c := pl.costs.CSCPCycles()
	pl.te = pl.te[:0]
	for _, pt := range pl.model.Points() {
		s := 0.0
		if lam != 0 && c != 0 {
			s = math.Sqrt(lam * c / pt.Freq)
		}
		pl.te = append(pl.te, tePoint{pt: pt, onePlus: 1 + s, oneMinus: 1 - s})
	}
	pl.teLam, pl.teOK = lamBits, true
}

// numSub returns the optimal sub-interval count for an interval of
// length itv at frequency f under rate lam, through the pooled
// analysis.SubMemo for that (f, λ) environment. Post-fault replans that
// land on a deadline-independent interval rule (e.g. the Poisson branch
// I1 = sqrt(2C/λ)) revisit the same (f, λ, itv) triple even though their
// full plan keys differ — this second-level cache catches those.
func (pl *Planner) numSub(f, lam, itv float64) int {
	fb, lb := math.Float64bits(f), math.Float64bits(lam)
	for i := range pl.subs {
		if pl.subs[i].f == fb && pl.subs[i].lam == lb {
			return pl.subs[i].sm.NumSub(itv)
		}
	}
	ap := analysis.Params{Costs: pl.costs.Scaled(f), Lambda: lam}
	if len(pl.subs) < subEnvCap {
		sm := analysis.NewSubMemo(ap, pl.cfg.Sub)
		pl.subs = append(pl.subs, subEnv{f: fb, lam: lb, sm: sm})
		return sm.NumSub(itv)
	}
	return analysis.NumSub(ap, pl.cfg.Sub, itv)
}

// envFor returns the policy.Env for one (frequency, λ) pair, building
// and pooling it on first sight. The pool shares subEnvCap: an
// online-λ scheme that overflows it falls back to building the env per
// plan, which is exactly the un-pooled Interval cost.
func (pl *Planner) envFor(f, lam float64) *policy.Env {
	fb, lb := math.Float64bits(f), math.Float64bits(lam)
	for i := range pl.envs {
		if pl.envs[i].f == fb && pl.envs[i].lam == lb {
			return &pl.envs[i].env
		}
	}
	env := policy.NewEnv(pl.costs.CSCPCycles()/f, lam)
	if len(pl.envs) < subEnvCap {
		pl.envs = append(pl.envs, itvEnv{f: fb, lam: lb, env: env})
		return &pl.envs[len(pl.envs)-1].env
	}
	return &env
}

// plannerCacheKey identifies the construction state of a Planner: one
// scheme configuration on one platform. A RunContext's scratch slot
// holds the planner for the key it last served; a mismatch (new cell)
// rebuilds, a match (next rep of the same cell) reuses the warm planner.
type plannerCacheKey struct {
	cfg   Adaptive
	model *cpu.Model
	costs checkpoint.Costs
	task  task.Task
}

// plannerPoolCap bounds the per-context planner pool: large enough to
// hold every (scheme, grid-point) planner of a full published sub-table
// (8 grid points × 4 columns = 32), so re-running a table — the bench
// harness's and the serve daemon's steady state — rebuilds nothing and
// keeps every planner's TE tables, env pools and sub-interval memos
// warm. Beyond the cap the least-recently-used planner retires.
const plannerPoolCap = 48

// plannerMemo is the value parked in RunContext scratch: the context's
// planner pool in most-recently-used order (a repetition's lookup hits
// index 0; a cell switch scans, a table re-run scans once per cell) and
// the plan cache all of them share, keyed by planner ids drawn from
// nextID. hits/misses carry the cache counters of planners the pool has
// already retired, so PlannerCacheStats reports a context-lifetime
// total. A retired planner's entries stay in the cache until
// overwritten; its id is never reissued, so they are never read again.
type plannerMemo struct {
	keys         []plannerCacheKey
	pls          []*Planner
	sets         []planSet // the plan cache; len is a power of two
	nextID       uint64
	hits, misses uint64
}

// plannerFor returns a planner for the scheme over p's platform, reusing
// one pooled in ctx when it matches. ctx may be nil (the plain
// uncontexted Run path), in which case a fresh uncached planner is
// built: planning states within one run are almost never revisited
// (replans key on the continuous remaining deadline), so a cache would
// cost more than it saves.
func (s *Adaptive) plannerFor(ctx *sim.RunContext, p sim.Params) *Planner {
	if ctx == nil {
		return NewPlanner(*s, p.CPUModel(), p.Costs, p.Task)
	}
	pm, ok := ctx.Scratch().(*plannerMemo)
	if !ok {
		pm = &plannerMemo{sets: make([]planSet, planSetsCell)}
		ctx.SetScratch(pm)
	}
	// Field-wise match against the pooled keys: this runs once per
	// repetition, so it must not construct a key struct (a ~100-byte
	// copy) just to compare it. MRU order makes the per-repetition
	// lookup one compare; only a cell switch scans deeper.
	model := p.CPUModel()
	for i := range pm.keys {
		k := &pm.keys[i]
		if k.cfg == *s && k.model == model && k.costs == p.Costs && k.task == p.Task {
			if i > 0 {
				key, pl := pm.keys[i], pm.pls[i]
				copy(pm.keys[1:i+1], pm.keys[:i])
				copy(pm.pls[1:i+1], pm.pls[:i])
				pm.keys[0], pm.pls[0] = key, pl
			}
			return pm.pls[0]
		}
	}
	key := plannerCacheKey{cfg: *s, model: model, costs: p.Costs, task: p.Task}
	pl := NewPlanner(key.cfg, key.model, key.costs, key.task)
	pm.nextID++ // ids start at 1: id 0 marks an empty cache way
	pl.memo, pl.id = pm, pm.nextID
	if len(pm.pls) == 1 { // a second planner: see planSetsCell
		pm.sets = make([]planSet, planSets)
	}
	if len(pm.pls) >= plannerPoolCap {
		// Fold the retiring planner's counters into the carried total
		// so the context's cache stats survive the eviction.
		last := pm.pls[len(pm.pls)-1]
		pm.hits += last.hits
		pm.misses += last.misses
		pm.keys = pm.keys[:len(pm.keys)-1]
		pm.pls = pm.pls[:len(pm.pls)-1]
	}
	pm.keys = append(pm.keys, plannerCacheKey{})
	pm.pls = append(pm.pls, nil)
	copy(pm.keys[1:], pm.keys)
	copy(pm.pls[1:], pm.pls)
	pm.keys[0], pm.pls[0] = key, pl
	return pl
}

// PlannerCacheStats reports the plan-cache hit/miss totals accumulated
// over ctx's lifetime — the pooled planners' counters plus those of
// every planner the context has already retired. Contexts that never
// ran an adaptive scheme report zeros. The caller owns delta
// bookkeeping: the totals are monotonic for a fixed context.
func PlannerCacheStats(ctx *sim.RunContext) (hits, misses uint64) {
	if pm, ok := ctx.Scratch().(*plannerMemo); ok {
		hits, misses = pm.hits, pm.misses
		for _, pl := range pm.pls {
			hits += pl.hits
			misses += pl.misses
		}
	}
	return hits, misses
}
