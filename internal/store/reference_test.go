package store

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// refSet is the reference model of Set: the original full-scan
// implementation, which re-derives every retained image's tier from its
// recency rank on each Insert and picks the quasi-geometric victim by a
// forward scan over every candidate. Set must match it write for write.
type refSet struct {
	cfg    *Config
	geo    bool
	bound  int
	prefix [MaxTiers]int
	imgs   []Image
	seq    uint64
	writes []Write
}

func newRefSet(cfg *Config) *refSet {
	r := &refSet{cfg: cfg, geo: cfg.Policy == PolicyQuasiGeometric, bound: cfg.Bound()}
	sum := 0
	for i, t := range cfg.Tiers {
		if t.Capacity <= 0 {
			sum = math.MaxInt
		} else {
			sum += t.Capacity
		}
		r.prefix[i] = sum
	}
	return r
}

// rankTier maps a recency rank (0 = newest) to its tier index.
func (r *refSet) rankTier(rank int) int {
	for t := 0; t < len(r.cfg.Tiers); t++ {
		if rank < r.prefix[t] {
			return t
		}
	}
	return len(r.cfg.Tiers) - 1
}

func (r *refSet) victim() int {
	if !r.geo || len(r.imgs) <= 1 {
		return 0
	}
	best, bestLevel := 0, -1
	for i := 0; i < len(r.imgs)-1; i++ {
		level := bits.TrailingZeros64(r.imgs[i].Seq)
		if bestLevel < 0 || level <= bestLevel {
			best, bestLevel = i, level
		}
	}
	return best
}

func (r *refSet) Insert(work float64, diverged bool) ([]Write, bool) {
	evicted := false
	if r.bound > 0 && len(r.imgs) >= r.bound {
		v := r.victim()
		r.imgs = append(r.imgs[:v], r.imgs[v+1:]...)
		evicted = true
	}
	r.seq++
	r.imgs = append(r.imgs, Image{Work: work, Seq: r.seq, Diverged: diverged})
	r.writes = r.writes[:0]
	n := len(r.imgs)
	for i := n - 1; i >= 0; i-- {
		rt := r.rankTier(n - 1 - i)
		if i == n-1 {
			r.imgs[i].Tier = rt
			r.writes = append(r.writes, Write{Index: i, Tier: rt})
			continue
		}
		if rt > r.imgs[i].Tier {
			r.imgs[i].Tier = rt
			r.writes = append(r.writes, Write{Index: i, Tier: rt})
		}
	}
	return r.writes, evicted
}

func (r *refSet) TruncateAfter(limit float64) int {
	n := len(r.imgs)
	i := n
	for i > 0 && r.imgs[i-1].Work > limit {
		i--
	}
	r.imgs = r.imgs[:i]
	return n - i
}

func (r *refSet) Clear() {
	r.imgs = r.imgs[:0]
	r.seq = 0
}

// TestSetMatchesReference drives Set and the full-scan reference model
// through identical seeded sequences of Insert, TruncateAfter, Clear and
// MarkCorrupted, over one- to four-tier stacks (bounded, explicit-k and
// unlimited-tail) under both policies. After every step the retained
// images, the Insert write lists (order included) and the truncation
// counts must agree, and every image must sit at or below its recency
// rank's tier — the invariant that lets Insert check only boundary ranks.
func TestSetMatchesReference(t *testing.T) {
	tiers := func(caps ...int) []Tier {
		out := make([]Tier, len(caps))
		for i, c := range caps {
			out[i] = Tier{Name: fmt.Sprintf("t%d", i), Capacity: c}
		}
		return out
	}
	shapes := []struct {
		name string
		caps []int
		k    int
	}{
		{"1tier", []int{3}, 0},
		{"1tier-unlimited-k5", []int{0}, 5},
		{"1tier-unlimited", []int{0}, 0},
		{"2tier", []int{1, 3}, 0},
		{"2tier-k3", []int{2, 4}, 3},
		{"2tier-unlimited", []int{2, 0}, 0},
		{"3tier", []int{1, 2, 4}, 0},
		{"3tier-unlimited-k6", []int{1, 2, 0}, 6},
		{"4tier", []int{1, 1, 2, 4}, 0},
		{"4tier-unlimited", []int{2, 1, 3, 0}, 0},
	}
	for _, sh := range shapes {
		for _, policy := range []string{PolicyEvictOldest, PolicyQuasiGeometric} {
			cfg := &Config{Tiers: tiers(sh.caps...), K: sh.k, Policy: policy}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", sh.name, policy, seed), func(t *testing.T) {
					driveAgainstReference(t, cfg, seed)
				})
			}
		}
	}
}

func driveAgainstReference(t *testing.T, cfg *Config, seed int64) {
	var s Set
	s.Configure(cfg)
	ref := newRefSet(cfg)
	r := rand.New(rand.NewSource(seed))
	work := 0.0
	for step := 0; step < 3000; step++ {
		op := ""
		switch x := r.Intn(100); {
		case x < 80:
			op = "insert"
			work += 1 + r.Float64()
			diverged := r.Intn(6) == 0
			gotW, gotE := s.Insert(work, diverged)
			wantW, wantE := ref.Insert(work, diverged)
			if gotE != wantE || !slices.Equal(gotW, wantW) {
				t.Fatalf("step %d insert: writes %v evicted %v, reference %v evicted %v",
					step, gotW, gotE, wantW, wantE)
			}
		case x < 92:
			op = "truncate"
			work *= r.Float64()
			if got, want := s.TruncateAfter(work), ref.TruncateAfter(work); got != want {
				t.Fatalf("step %d truncate: dropped %d, reference %d", step, got, want)
			}
		case x < 94:
			op = "clear"
			work = 0
			s.Clear()
			ref.Clear()
		default:
			op = "mark"
			if n := s.Len(); n > 0 {
				i := r.Intn(n)
				s.MarkCorrupted(i)
				ref.imgs[i].Corrupted = true
			}
		}
		if !slices.Equal(s.Images(), ref.imgs) {
			t.Fatalf("step %d (%s): images\n%+v\nreference\n%+v", step, op, s.Images(), ref.imgs)
		}
		n := s.Len()
		for i, im := range s.Images() {
			if rt := ref.rankTier(n - 1 - i); im.Tier < rt {
				t.Fatalf("step %d (%s): image %d at rank %d sits in tier %d, above its rank's tier %d",
					step, op, i, n-1-i, im.Tier, rt)
			}
		}
	}
}
