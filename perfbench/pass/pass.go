// Package pass is one pass of a batch workload: every sub-table of the
// workload run once through an experiment.Runner, with the output
// digested so it can be checked. The fresh-process child (passchild)
// and the traced runs in the benchmark process share it.
package pass

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
)

// DefaultSeed is the `tables` command's default base seed. Pass 0 of
// every paper-tables and extension-scalar run uses it, so its output
// can be checked against the recorded digests; later passes take their
// seeds from the workload seed.
const DefaultSeed = 2006

// extReps is the repetitions per cell of the extension-scalar workload:
// a pass of E3 and E4 then takes about as long as a paper-tables pass.
const extReps = 2000

// Kind is one of the two batch workloads: which sub-tables a pass runs,
// how, and what its default-seed output must hash to.
type Kind struct {
	Name    string // the child's --kind argument
	Reps    int
	Specs   func() []experiment.Spec
	run     func(experiment.Runner, experiment.Spec) (experiment.Table, error)
	Schemes func(experiment.Spec) []sim.Scheme
	// CSVSHA and ExactSHA are the recorded digests of pass 0
	// (DefaultSeed): of the CSV `tables -csv` prints, and of every cell's
	// exact Summary. An intentional change of simulation output must
	// re-record them (NOTES.md says how).
	CSVSHA, ExactSHA string
}

// Paper is all eight paper sub-tables at the paper's repetitions.
var Paper = Kind{
	Name:  "paper",
	Reps:  experiment.DefaultReps,
	Specs: experiment.Tables,
	run: func(r experiment.Runner, s experiment.Spec) (experiment.Table, error) {
		return r.RunTable(s)
	},
	Schemes:  func(s experiment.Spec) []sim.Scheme { return s.Schemes() },
	CSVSHA:   recordedPaperCSV,
	ExactSHA: recordedPaperExact,
}

// Extension is extension tables E3 and E4, mostly on the scalar engine.
var Extension = Kind{
	Name: "ext",
	Reps: extReps,
	Specs: func() []experiment.Spec {
		all := experiment.ExtensionTables()
		return []experiment.Spec{all[2], all[3]} // E3, E4
	},
	run: func(r experiment.Runner, s experiment.Spec) (experiment.Table, error) {
		tbl, err := r.RunExtensionTable(s)
		// RunExtensionTable returns every cell or an error, and leaves
		// Done unset.
		for _, row := range tbl.Rows {
			for c := range row.Cells {
				row.Cells[c].Done = err == nil
			}
		}
		return tbl, err
	},
	Schemes: func(s experiment.Spec) []sim.Scheme {
		ss, err := experiment.ExtensionSchemes(s.ID)
		if err != nil {
			panic(err) // the specs above are the package's own
		}
		return ss
	},
	CSVSHA:   recordedExtCSV,
	ExactSHA: recordedExtExact,
}

// ByName returns the kind a child is asked to run.
func ByName(name string) (Kind, bool) {
	for _, k := range []Kind{Paper, Extension} {
		if k.Name == name {
			return k, true
		}
	}
	return Kind{}, false
}

// Result is what one pass produced.
type Result struct {
	WallS    float64           `json:"wall_s"`
	Reps     int               `json:"reps"`
	Cells    int               `json:"cells"`
	Failed   int               `json:"failed"`
	RSSMB    float64           `json:"rss_mb"`
	CSV      string            `json:"csv_sha256"`
	Exact    string            `json:"exact_sha256"`
	Summary  map[string]string `json:"summaries"`
	ErrorMsg string            `json:"error,omitempty"`
}

// CellKey names one cell of a pass.
func CellKey(id string, u, lambda float64, col int) string {
	return fmt.Sprintf("%s|%g|%g|%d", id, u, lambda, col)
}

// Exact renders a Summary with every float in shortest round-trip form,
// so two renderings are equal exactly when the bits are.
func Exact(v any) string { return fmt.Sprintf("%+v", v) }

// Run runs every sub-table of k once through r and digests the output.
// wrap, when set, is called around each sub-table's run (the traced
// runs record a span there).
func Run(k Kind, r experiment.Runner, wrap func(experiment.Spec, func())) Result {
	res := Result{Summary: map[string]string{}}
	csv, ex := sha256.New(), sha256.New()
	t0 := time.Now()
	var tables []experiment.Table
	var errs []error
	for _, spec := range k.Specs() {
		var tbl experiment.Table
		var err error
		call := func() { tbl, err = k.run(r, spec) }
		if wrap != nil {
			wrap(spec, call)
		} else {
			call()
		}
		tbl.Spec = spec
		tables = append(tables, tbl)
		errs = append(errs, err)
	}
	res.WallS = time.Since(t0).Seconds()
	for i, tbl := range tables {
		spec := tbl.Spec
		res.Cells += len(spec.Us) * len(spec.Lambdas) * len(k.Schemes(spec))
		if errs[i] != nil {
			res.ErrorMsg = errs[i].Error()
		}
		io.WriteString(csv, tbl.CSV())
		for _, row := range tbl.Rows {
			for col, c := range row.Cells {
				if !c.Done {
					continue
				}
				key := CellKey(spec.ID, row.U, row.Lambda, col)
				s := Exact(c.Summary)
				res.Summary[key] = s
				io.WriteString(ex, key+"="+s+"\n")
				res.Reps += r.Reps
			}
		}
	}
	res.Failed = res.Cells - len(res.Summary)
	res.CSV = hex.EncodeToString(csv.Sum(nil))
	res.Exact = hex.EncodeToString(ex.Sum(nil))
	return res
}
