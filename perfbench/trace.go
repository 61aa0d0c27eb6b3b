package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request or pass share Run; Parent is the span
// that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	nextID int64
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span identity, so children can name their parent before
// the parent span ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record stores a finished span under a reserved id.
func (t *tracer) record(id, parent int64, run, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Run: run, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	t.mu.Unlock()
}

// add records a span that has no children.
func (t *tracer) add(parent int64, run, name string, start, end time.Time) {
	t.record(t.id(), parent, run, name, start, end)
}

// durationsMS returns the durations of the spans called name, in ms.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// selfTimes is each span name's summed self time: a span's duration
// minus the part of its interval that the union of its children covers
// (children running in parallel are not counted twice).
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, curS, curE := int64(0), int64(-1), int64(-1)
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if a > curE {
				covered += curE - curS
				curS, curE = a, b
			} else if b > curE {
				curE = b
			}
		}
		covered += curE - curS
		out[s.Name] += s.dur() - time.Duration(covered)
	}
	return out
}

// write saves the spans, with the fingerprint and the per-name self
// times as a header, to .bench_out/ in the working directory.
func (t *tracer) write(workload string, seed uint64, fp hostPrint) (string, error) {
	dir := ".bench_out"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := map[string]float64{}
	for name, d := range t.selfTimes() {
		self[name] = d.Seconds()
	}
	if err := enc.Encode(map[string]any{"fingerprint": fp, "workload": workload, "seed": seed, "self_s": self}); err != nil {
		return "", err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
