package experiment

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestTableBatchScalarEquivalence pins the tentpole invariant at the
// experiment layer: a full published grid produced through the batch
// kernels is identical — every summary bit — to the same grid forced
// through the scalar reference loop. Table 1a sweeps λ with shared
// planners and reuses worker contexts across cells, so this also
// exercises the context-wide plan cache's planner-id and λ keying in
// the exact shape production runs have.
func TestTableBatchScalarEquivalence(t *testing.T) {
	spec, err := TableByID("1a")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Runner{Reps: 16, Seed: 9, Workers: 2}.RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := Runner{Reps: 16, Seed: 9, Workers: 2, DisableBatch: true}.RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Rows) != len(scalar.Rows) {
		t.Fatalf("row count differs: batch %d scalar %d", len(batch.Rows), len(scalar.Rows))
	}
	for i := range batch.Rows {
		br, sr := batch.Rows[i], scalar.Rows[i]
		for j := range br.Cells {
			// Summaries of never-completing cells carry NaN conditional
			// means, so struct equality would reject identical results;
			// the shortest-round-trip formatting is exact for every
			// non-NaN float and collapses NaNs correctly.
			bs, ss := fmt.Sprintf("%+v", br.Cells[j]), fmt.Sprintf("%+v", sr.Cells[j])
			if bs != ss {
				t.Errorf("U=%v λ=%v %s:\nbatch:  %s\nscalar: %s",
					br.U, br.Lambda, br.Cells[j].Scheme, bs, ss)
			}
		}
	}
}

// benchCell times one 10k-repetition grid cell — the paper scheme at
// Table 1a's first cell — through the sharded executor, batched vs
// forced-scalar. The reps/sec metric is the number the tentpole's
// ≥2×-throughput acceptance floor tracks, isolated from grid mix.
func benchCell(b *testing.B, disable bool) {
	spec, err := TableByID("1a")
	if err != nil {
		b.Fatal(err)
	}
	schemes := spec.Schemes()
	scheme := schemes[len(schemes)-1]
	const reps = 10_000
	runner := Runner{Reps: reps, Seed: 1, DisableBatch: disable}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunCell(spec, scheme, spec.Us[0], spec.Lambdas[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	secPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N) * 1e-9
	b.ReportMetric(float64(reps)/secPerOp, "reps/sec")
}

func BenchmarkCellBatch(b *testing.B)  { benchCell(b, false) }
func BenchmarkCellScalar(b *testing.B) { benchCell(b, true) }

// TestExtensionBatchScalarEquivalence pins the envelope extension at the
// table level: the E2 λ-knowledge ablation — whose wrong-belief and
// online-estimator columns were scalar-only before the round-two kernel
// — produces bit-identical summaries through the batch kernels and the
// forced-scalar reference loop.
func TestExtensionBatchScalarEquivalence(t *testing.T) {
	var spec Spec
	for _, s := range ExtensionTables() {
		if s.ID == "E2" {
			spec = s
		}
	}
	if spec.ID != "E2" {
		t.Fatal("E2 spec missing")
	}
	batch, err := Runner{Reps: 16, Seed: 11, Workers: 2}.RunExtensionTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := Runner{Reps: 16, Seed: 11, Workers: 2, DisableBatch: true}.RunExtensionTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch.Rows {
		br, sr := batch.Rows[i], scalar.Rows[i]
		for j := range br.Cells {
			bs, ss := fmt.Sprintf("%+v", br.Cells[j]), fmt.Sprintf("%+v", sr.Cells[j])
			if bs != ss {
				t.Errorf("U=%v λ=%v %s:\nbatch:  %s\nscalar: %s",
					br.U, br.Lambda, br.Cells[j].Scheme, bs, ss)
			}
		}
	}
}

// TestExtensionSchedulingDeterminism pins the row-scheduled extension
// runner on the store and imperfect-FT tables, E3 and E4, whose columns
// mostly run the scalar engine: the batch kernel vs the forced-scalar
// loop, one worker vs three, and 7-rep shards vs the default all yield
// the same table as running every cell alone through RunCell. Summaries
// are compared rendered, not with ==: E3 cells with P=0 carry E=NaN.
func TestExtensionSchedulingDeterminism(t *testing.T) {
	const reps, seed = 24, 17
	render := func(tbl Table) []string {
		var out []string
		for _, row := range tbl.Rows {
			for _, c := range row.Cells {
				out = append(out, fmt.Sprintf("U=%v λ=%v %s %+v", row.U, row.Lambda, c.Scheme, c.Summary))
			}
		}
		return out
	}
	for _, spec := range ExtensionTables()[2:] {
		schemes, err := ExtensionSchemes(spec.ID)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: every cell on its own, the per-cell schedule.
		base := Runner{Reps: reps, Seed: seed, Workers: 2}
		var want []string
		for _, u := range spec.Us {
			for _, lam := range spec.Lambdas {
				for _, s := range schemes {
					sum, err := base.RunCell(spec, s, u, lam)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, fmt.Sprintf("U=%v λ=%v %s %+v", u, lam, s.Name(), sum))
				}
			}
		}
		variants := map[string]Runner{
			"default":   base,
			"scalar":    {Reps: reps, Seed: seed, Workers: 2, DisableBatch: true},
			"workers=1": {Reps: reps, Seed: seed, Workers: 1},
			"workers=3": {Reps: reps, Seed: seed, Workers: 3},
			"shard=7":   {Reps: reps, Seed: seed, Workers: 2, ShardSize: 7},
		}
		for name, r := range variants {
			tbl, err := r.RunExtensionTable(spec)
			if err != nil {
				t.Fatalf("%s %s: %v", spec.ID, name, err)
			}
			got := render(tbl)
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d cells, want %d", spec.ID, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s %s:\ngot:  %s\nwant: %s", spec.ID, name, got[i], want[i])
				}
			}
		}
	}
}

// TestEagerBatchScalarEquivalence pins the eager-DVS ablation (and its
// combination with online estimation) cell-for-cell against the scalar
// reference — the schemes the governor-idealisation benchmarks run,
// likewise scalar-only before the round-two kernel.
func TestEagerBatchScalarEquivalence(t *testing.T) {
	spec, err := TableByID("1a")
	if err != nil {
		t.Fatal(err)
	}
	schemes := []sim.Scheme{
		core.NewAdaptDVSSCP().WithEagerDVS(),
		core.NewAdaptDVSCCP().WithEagerDVS(),
		core.NewAdaptDVSSCP().WithOnlineLambda(0.001).WithEagerDVS(),
	}
	cells := [][2]float64{{0.76, 0.0014}, {0.82, 0.0016}, {0.80, 0}}
	for _, s := range schemes {
		for _, c := range cells {
			b, err := Runner{Reps: 32, Seed: 5}.RunCell(spec, s, c[0], c[1])
			if err != nil {
				t.Fatal(err)
			}
			sc, err := Runner{Reps: 32, Seed: 5, DisableBatch: true}.RunCell(spec, s, c[0], c[1])
			if err != nil {
				t.Fatal(err)
			}
			bs, ss := fmt.Sprintf("%+v", b), fmt.Sprintf("%+v", sc)
			if bs != ss {
				t.Errorf("%s U=%v λ=%v:\nbatch:  %s\nscalar: %s", s.Name(), c[0], c[1], bs, ss)
			}
		}
	}
}

// TestAblationCellsNeverFallBack pins the zero-scalar-fallback
// acceptance criterion: sim.RunBatch must accept the online-λ and
// eager-DVS ablation columns on their production cell parameters, so no
// shard of an E-table run drops to the scalar loop.
func TestAblationCellsNeverFallBack(t *testing.T) {
	spec, err := TableByID("1a")
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.CellParams(0.78, 0.0014)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []sim.Scheme{
		core.NewAdaptDVSSCP().WithOnlineLambda(0.001),
		core.NewAdaptDVSSCP().WithEagerDVS(),
		core.NewAdaptDVSSCP().WithOnlineLambda(0.001).WithEagerDVS(),
		misbelievingScheme{factor: 0.1},
		misbelievingScheme{factor: 0.1, online: true},
	}
	seeds := make([]uint64, 8)
	for i := range seeds {
		seeds[i] = mix(42, i)
	}
	rctx, bctx := sim.NewRunContext(), sim.NewBatchContext()
	for _, s := range schemes {
		if !sim.RunBatch(rctx, bctx, s, p, seeds) {
			t.Errorf("%s: fell back to the scalar loop on production cell parameters", s.Name())
		}
	}
}

// TestWarmContextRerunBitStable pins the cross-run cache layer the
// steady-state throughput rides on: worker contexts are pooled across
// RunTable calls, so a re-run executes with warm planner pools and a
// plan cache full of the previous run's entries — and must still
// produce the identical table, bit for bit, run after run.
func TestWarmContextRerunBitStable(t *testing.T) {
	spec, err := TableByID("1a")
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{Reps: 12, Seed: 3}
	first, err := r.RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%+v", first.Rows)
	for round := 2; round <= 3; round++ {
		again, err := r.RunTable(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%+v", again.Rows); got != want {
			t.Fatalf("run %d diverged from run 1 with warm pooled contexts:\nfirst: %.200s\nagain: %.200s",
				round, want, got)
		}
	}
}
