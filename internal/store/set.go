// The retained checkpoint set of one running repetition: a bounded,
// tier-assigned ledger of checkpoint images. The Set does the
// bookkeeping (bound enforcement via the policy, tier assignment by
// recency with sticky demotion); the engine charges the costs and draws
// the per-write corruption, so this package stays randomness-free.

package store

import "math"

// Image is one retained checkpoint image.
type Image struct {
	// Work is the absolute task progress (cycles) the image captures.
	Work float64
	// Seq is the 1-based store sequence number within the current run
	// segment (reset on restart-from-scratch) — the coordinate the
	// maintenance policies reason in.
	Seq uint64
	// Tier is the index into Config.Tiers where the image currently
	// resides. Assignment is by recency: the newest images occupy the
	// fastest tier up to its capacity and overflow cascades down.
	// Tiers are sticky — an image is only ever demoted, never
	// promoted, so no free "uplift" of old images into fast memory.
	Tier int
	// Diverged marks an image stored after the replicas had silently
	// diverged; it can never be restored from (its digests disagree).
	Diverged bool
	// Corrupted marks an image silently damaged at write time; a
	// restore attempt fails and pays, pushing the cascade older.
	Corrupted bool
}

// Usable reports whether a rollback can restore from the image.
func (im Image) Usable() bool { return !im.Diverged && !im.Corrupted }

// Write is one physical image write performed by an Insert: the fresh
// image plus any demotions its arrival cascaded into deeper tiers. The
// engine charges Tier's write cost for each and draws that tier's
// corruption probability against the image at Index.
type Write struct {
	// Index into Images() after the insert.
	Index int
	// Tier the image was (re)written into.
	Tier int
}

// Set is the per-repetition retained checkpoint set. The zero value is
// inactive; Configure activates it for a run.
type Set struct {
	cfg    *Config
	geo    bool // quasi-geometric victim selection; evict-oldest otherwise
	bound  int
	prefix [MaxTiers]int // cumulative tier capacities
	imgs   []Image
	seq    uint64
	writes []Write // scratch returned by Insert, reused across calls
}

// Configure prepares the set for a run under cfg (which must have been
// Validated) and clears any previous run's images. A nil cfg
// deactivates the set.
func (s *Set) Configure(cfg *Config) {
	if cfg != s.cfg {
		s.cfg = cfg
		if cfg != nil {
			if err := checkPolicy(cfg.Policy); err != nil {
				// Config is validated at the Params boundary; reaching
				// here is a programming error.
				panic(err)
			}
			s.geo = cfg.Policy == PolicyQuasiGeometric
			s.bound = cfg.Bound()
			sum := 0
			for i, t := range cfg.Tiers {
				if t.Capacity <= 0 {
					sum = math.MaxInt
				} else {
					sum += t.Capacity
				}
				s.prefix[i] = sum
			}
		}
	}
	s.Clear()
}

// Active reports whether the set models a store this run.
func (s *Set) Active() bool { return s.cfg != nil }

// Config returns the active configuration (nil when inactive).
func (s *Set) Config() *Config { return s.cfg }

// Clear empties the set and rewinds the sequence counter — a fresh run
// segment, used at run start and on restart-from-scratch.
func (s *Set) Clear() {
	s.imgs = s.imgs[:0]
	s.seq = 0
}

// Len returns the number of retained images.
func (s *Set) Len() int { return len(s.imgs) }

// Images returns the retained images oldest-first. The slice aliases
// the set's storage and is invalidated by the next mutating call.
func (s *Set) Images() []Image { return s.imgs }

// MarkCorrupted flags image i as silently damaged.
func (s *Set) MarkCorrupted(i int) { s.imgs[i].Corrupted = true }

// Insert adds a fresh image at the given absolute work, evicting the
// policy's victim first when the set is at its bound. It returns the
// physical writes performed (the fresh image first, then demotions
// newest-first) and whether an eviction happened. The returned slice is
// scratch, reused by the next Insert.
//
// Tier assignment is by recency rank (0 = newest): rank r belongs in
// the first tier t with r < prefix[t], and tiers are sticky, so every
// retained image satisfies Tier >= its rank's tier after every Insert,
// TruncateAfter and Clear. An insert moves each older image at most one
// rank deeper, so only an image that just stepped onto a boundary rank
// prefix[t] can fall below its rank's tier (t+1); checking those
// len(Tiers)-1 ranks in ascending order yields exactly the demotions,
// newest-first, that a scan of every image would.
func (s *Set) Insert(work float64, diverged bool) (writes []Write, evicted bool) {
	s.seq++
	fresh := Image{Work: work, Seq: s.seq, Diverged: diverged}
	n := len(s.imgs)
	if s.bound > 0 && n >= s.bound {
		v := 0 // evict-oldest
		if s.geo {
			v = quasiGeometricVictim(s.imgs)
		}
		// Close the victim's gap and reuse the last slot for the fresh
		// image; the set never holds more than a handful of images, so
		// an element loop beats a memmove call.
		for i := v; i < n-1; i++ {
			s.imgs[i] = s.imgs[i+1]
		}
		s.imgs[n-1] = fresh
		evicted = true
	} else {
		s.imgs = append(s.imgs, fresh)
		n++
	}
	// The fresh image always lands in the fastest tier.
	s.writes = append(s.writes[:0], Write{Index: n - 1})
	for t := 0; t < len(s.cfg.Tiers)-1; t++ {
		i := n - 1 - s.prefix[t]
		if i < 0 {
			break
		}
		if s.imgs[i].Tier <= t {
			s.imgs[i].Tier = t + 1
			s.writes = append(s.writes, Write{Index: i, Tier: t + 1})
		}
	}
	return s.writes, evicted
}

// TruncateAfter drops every image whose Work exceeds limit — stale
// post-rollback state overtaken by re-execution. Returns the count
// dropped. Work is nondecreasing in insertion order within a run
// segment, so this always removes a suffix.
func (s *Set) TruncateAfter(limit float64) int {
	n := len(s.imgs)
	i := n
	for i > 0 && s.imgs[i-1].Work > limit {
		i--
	}
	s.imgs = s.imgs[:i]
	return n - i
}
