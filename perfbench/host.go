package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// hostPrint identifies the host and build a result came from. Results
// from different fingerprints are informational only, never compared.
type hostPrint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOAMD64    string `json:"goamd64"`
	PGO        string `json:"pgo"`
	Commit     string `json:"commit"`
}

func (h hostPrint) json() string {
	b, _ := json.Marshal(h) // plain strings and ints cannot fail to marshal
	return string(b)
}

func fingerprint() hostPrint {
	h := hostPrint{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), GOAMD64: "v1", PGO: "off", Commit: commit(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				h.GOAMD64 = s.Value
			case "-pgo":
				if b, err := os.ReadFile(s.Value); err == nil {
					sum := sha256.Sum256(b)
					h.PGO = "sha256:" + hex.EncodeToString(sum[:8])
				}
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the git revision when the checkout is a repository, and
// otherwise a hash of the Go sources, module files and PGO profile,
// which identifies the code just as well.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the hash
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "default.pgo" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil)[:8])
}

// splitmix is the SplitMix64 finaliser; the benchmark derives every
// input from the workload seed through it, independently of the
// program's own generators.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// gen is a small deterministic generator of workload inputs.
type gen struct{ s uint64 }

func newGen(seed uint64, stream uint64) *gen {
	return &gen{s: splitmix(seed ^ splitmix(stream+0x5bd1e995))}
}

func (g *gen) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	return splitmix(g.s)
}

// intn returns a value in [0, n).
func (g *gen) intn(n int) int { return int(g.next() % uint64(n)) }

// float returns a value in [lo, hi).
func (g *gen) float(lo, hi float64) float64 {
	return lo + (hi-lo)*float64(g.next()>>11)/(1<<53)
}
