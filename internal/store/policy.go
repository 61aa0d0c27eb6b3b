// Online checkpoint-set maintenance policies: which image to discard
// when the retained set is at its bound. Policies are pure functions of
// the images' sequence numbers — they never consume randomness, so
// trajectories stay bit-reproducible under rng.Stream.

package store

import (
	"fmt"
	"math/bits"
)

// Policy names accepted in Config.Policy.
const (
	// PolicyEvictOldest is the baseline: a sliding window of the k
	// newest images (the victim is always the oldest). Cheap rollbacks
	// stay cheap, but any fault older than k boundaries forces a
	// restart from scratch.
	PolicyEvictOldest = "evict-oldest"
	// PolicyQuasiGeometric keeps geometrically spaced images; see
	// quasiGeometricVictim.
	PolicyQuasiGeometric = "quasi-geometric"
)

// checkPolicy rejects unknown Config.Policy strings; the empty string
// is the evict-oldest baseline.
func checkPolicy(name string) error {
	switch name {
	case "", PolicyEvictOldest, PolicyQuasiGeometric:
		return nil
	default:
		return fmt.Errorf("store: unknown policy %q (want %q or %q)",
			name, PolicyEvictOldest, PolicyQuasiGeometric)
	}
}

// quasiGeometricVictim is the Bringmann-style spacing policy: among the
// non-newest images (oldest-first in imgs) it evicts the one whose
// sequence number has the fewest trailing zero bits, ties broken toward
// the newest. The surviving sequence numbers are the highest powers of
// two below the write head plus the head itself — distances into the
// past grow geometrically, so after S stores the set always contains an
// image within a bounded relative gap of any rollback target.
//
// Documented bound (property-tested in store_test.go): for k >= 3,
// consecutive retained sequence numbers a < b always satisfy
// b <= 2a + 1 — the gap into the past at most doubles per retained
// image — and the deepest retained image is within a factor-2 window of
// the oldest power of two the budget can hold. It never picks the
// newest image (the rollback anchor) unless it is the only one.
func quasiGeometricVictim(imgs []Image) int {
	best, bestLevel := 0, 64
	// Scanning newest-first with a strict < keeps the later (larger-seq)
	// candidate on ties, thinning the recent past before the sparse deep
	// retainers; an odd sequence number has the lowest possible level,
	// so the first one found ends the scan.
	for i := len(imgs) - 2; i >= 0; i-- {
		if level := bits.TrailingZeros64(imgs[i].Seq); level < bestLevel {
			best, bestLevel = i, level
			if level == 0 {
				break
			}
		}
	}
	return best
}
