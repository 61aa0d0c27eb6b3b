package sim

import (
	"math"

	"repro/internal/checkpoint"
)

// This file implements the tiered-store extension of the engine: what
// changes when stable storage is not the paper's free, infinite device
// but a bounded set of checkpoint images spread over storage tiers
// (Params.Store, see internal/store).
//
// Three departures from the seed engine are simulated:
//
//  1. Bounded retention: each stored checkpoint becomes an image in a
//     k-bounded set; at the bound the maintenance policy picks a victim.
//     A rollback whose analytic target was evicted walks older
//     survivors and re-executes the gap — or restarts from scratch when
//     nothing usable remains.
//  2. Tier costs: every physical image write (fresh stores and
//     demotions cascading into deeper tiers) and every restore attempt
//     charges the tier's cycle cost on top of the paper's flat
//     checkpoint/rollback costs.
//  3. Tier vulnerability: a write into a tier with Corruption > 0 may
//     silently damage the image; the damage is unmasked only when a
//     recovery attempts the restore, feeding the same cascade the
//     imperfect-FT model uses.
//
// Bit-compatibility contract: with Params.Store nil the engine never
// touches this file. With a store whose tiers are unlimited, zero-cost
// and invulnerable, trajectories are bit-identical to the storeless
// engine — pushes charge nothing and draw nothing, and every recovery
// restores the analytically-ideal target. The parity trick is
// lastGoodSeq: the engine remembers the sequence number of the newest
// non-diverged image; when that exact image survives, the recovery
// returns the *analytic* kept value (the same float expression the seed
// path computes) instead of re-deriving it from the image, so no
// floating-point re-association can creep in.

// pushImage inserts a checkpoint image at absolute work, charging tier
// write costs and drawing per-tier write corruption from the run's rng
// stream (writes into invulnerable tiers draw nothing). preCorrupted
// additionally marks the fresh image damaged — the imperfect path's
// stable-storage corruption, drawn by the caller to preserve the
// storeless draw order.
func (e *Engine) pushImage(work float64, diverged, preCorrupted bool) {
	writes, evicted := e.set.Insert(work, diverged)
	st := e.sstats
	if evicted {
		st.Evictions++
	}
	st.Demotions += uint64(len(writes) - 1)
	for _, w := range writes {
		st.TierWrites[w.Tier]++
		if d := e.tierWall[w.Tier].write; d > 0 {
			e.Spend(d)
		}
		if p := e.tierWall[w.Tier].corruption; p > 0 && e.src.Float64() < p {
			e.set.MarkCorrupted(w.Index)
		}
	}
	fresh := writes[0].Index
	if preCorrupted {
		e.set.MarkCorrupted(fresh)
	}
	if !diverged {
		// The newest non-diverged image is the analytic rollback target
		// the storeless engine would restore; recoveries check survival
		// by this sequence number.
		e.lastGoodSeq = e.set.Images()[fresh].Seq
	}
}

// chargeRestoreAttempt charges one restore attempt from image index i
// (tier read cycles at the current speed) and records it.
func (e *Engine) chargeRestoreAttempt(i int) {
	ti := e.set.Images()[i].Tier
	st := e.sstats
	st.TierRestores[ti]++
	st.TierRestoreCycles[ti] += e.tierWall[ti].readCycles
	if d := e.tierWall[ti].read; d > 0 {
		e.Spend(d)
	}
}

// refreshTierCosts recomputes the per-tier wall-clock write and read
// durations at the current operating point — the same cycles/f
// divisions pushImage and chargeRestoreAttempt would otherwise evaluate
// per image, so the cached values are bit-identical.
func (e *Engine) refreshTierCosts() {
	cfg := e.set.Config()
	if cfg == nil {
		return
	}
	f := e.cur.Freq
	for t, tier := range cfg.Tiers {
		e.tierWall[t] = tierCosts{
			write:      tier.WriteCycles / f,
			read:       tier.ReadCycles / f,
			readCycles: tier.ReadCycles,
			corruption: tier.Corruption,
		}
	}
}

// runIntervalStore is RunInterval over the tiered store on the ideal
// fault-tolerance path (perfect detection, but bounded retention and
// fallible tiers). The control flow and every float expression mirror
// the seed path; only the store bookkeeping is added. kept may be
// negative when a degraded recovery restores state older than the
// interval start.
func (e *Engine) runIntervalStore(itv float64, m int, sub checkpoint.Kind, doneWork float64) (kept float64, detected bool) {
	f := e.cur.Freq
	if m == 1 {
		off := e.execSpan(itv)
		e.CheckpointOp(checkpoint.CSCP)
		e.pushImage(doneWork+itv*f, off >= 0, false)
		if off < 0 {
			return itv * f, false
		}
		return e.recoverStoreIdeal(doneWork, 0), true
	}
	span := itv / float64(m)

	switch sub {
	case checkpoint.SCP:
		firstOffset := -1.0 // offset of earliest fault from interval start, wall
		struck := false     // integer-exact "a fault has happened" flag for divergence marking
		for j := 0; j < m; j++ {
			off := e.execSpan(span)
			if off >= 0 && firstOffset < 0 {
				firstOffset = float64(j)*span + off
			}
			if off >= 0 {
				struck = true
			}
			if j < m-1 {
				e.CheckpointOp(checkpoint.SCP)
				e.pushImage(doneWork+float64(j+1)*span*f, struck, false)
			}
		}
		e.CheckpointOp(checkpoint.CSCP)
		e.pushImage(doneWork+itv*f, struck, false)
		if firstOffset < 0 {
			return itv * f, false
		}
		goodBoundary := math.Floor(firstOffset / span)
		kept = goodBoundary * span * f
		return e.recoverStoreIdeal(doneWork, kept), true

	case checkpoint.CCP:
		for j := 0; j < m; j++ {
			off := e.execSpan(span)
			boundary := checkpoint.CCP
			if j == m-1 {
				boundary = checkpoint.CSCP
			}
			e.CheckpointOp(boundary)
			if boundary == checkpoint.CSCP {
				// CCPs store nothing; only the closing CSCP writes an
				// image, diverged when the last span was struck.
				e.pushImage(doneWork+itv*f, off >= 0, false)
			}
			if off >= 0 {
				return e.recoverStoreIdeal(doneWork, 0), true
			}
		}
		return itv * f, false

	default:
		panic("sim: sub-checkpoint flavour must be SCP or CCP")
	}
}

// recoverStoreIdeal performs the store-aware rollback on the ideal
// path. idealKept is the work the storeless engine would retain
// (relative to doneWork); when the image carrying that state survives,
// the same value is returned bit for bit. Otherwise the walk cascades
// down tiers and older images — each corrupted attempt paying a
// rollback charge plus the tier read — and the run re-executes from the
// older image, or restarts from scratch when the set holds nothing
// usable. Returns the kept work relative to doneWork (negative when the
// restore crossed the interval start).
func (e *Engine) recoverStoreIdeal(doneWork, idealKept float64) float64 {
	depth := 0
	chosen := -1
	imgs := e.set.Images()
	for i := len(imgs) - 1; i >= 0; i-- {
		im := imgs[i]
		if im.Diverged {
			// Rejected by the consistency scan without a restore
			// attempt, exactly like the imperfect path's ledger walk.
			continue
		}
		if im.Corrupted {
			depth++
			e.corruptRestores++
			e.Spend(e.wallRollback)
			e.chargeRestoreAttempt(i)
			if e.p.Trace != nil {
				e.p.Trace.add(Event{Kind: EvBadStore, Time: e.t, Value: im.Work})
			}
			continue
		}
		depth++
		e.chargeRestoreAttempt(i)
		chosen = i
		break
	}
	st := e.sstats
	if chosen >= 0 && imgs[chosen].Seq == e.lastGoodSeq {
		// The analytic rollback target survived: the trajectory is the
		// storeless one, bit for bit (under zero-cost tiers).
		limit := doneWork + idealKept
		if w := imgs[chosen].Work; w > limit {
			limit = w
		}
		st.Truncated += uint64(e.set.TruncateAfter(limit))
		st.ObserveDepth(depth)
		e.Rollback(doneWork + idealKept)
		return idealKept
	}
	if chosen >= 0 {
		// Degraded: the target was evicted or corrupted; re-execute
		// from the older surviving image.
		w := imgs[chosen].Work
		st.Truncated += uint64(e.set.TruncateAfter(w))
		st.ObserveDepth(depth)
		e.Rollback(w)
		return w - doneWork
	}
	if doneWork == 0 && idealKept == 0 {
		// Rolling back to the task origin needs no stored image — a
		// first-interval fault, not a restart.
		st.ObserveDepth(depth)
		e.Rollback(doneWork + idealKept)
		return idealKept
	}
	// Restart from scratch: every image was evicted, diverged or
	// corrupted (Sodre's restart discipline).
	e.restarts++
	st.Restarts++
	st.ObserveDepth(depth)
	e.set.Clear()
	e.lastGoodSeq = 0
	if e.p.Trace != nil {
		e.p.Trace.add(Event{Kind: EvRestart, Time: e.t})
	}
	e.Rollback(0)
	return -doneWork
}

// recoverImperfectStore is recoverImperfect over the tiered set: the
// same newest-to-oldest cascade under the Imperfection retry budget,
// with tier read charges added. With unlimited zero-cost tiers it is
// bit-identical to the ledger walk. Returns the absolute work restored.
func (e *Engine) recoverImperfectStore() float64 {
	budget := e.imp.Budget()
	attempts := 0
	depth := 0
	target := -1.0
	imgs := e.set.Images()
	for i := len(imgs) - 1; i >= 0 && attempts < budget; i-- {
		im := imgs[i]
		if im.Diverged {
			continue
		}
		if im.Corrupted {
			attempts++
			depth++
			e.corruptRestores++
			e.Spend(e.wallRollback)
			e.chargeRestoreAttempt(i)
			if e.p.Trace != nil {
				e.p.Trace.add(Event{Kind: EvBadStore, Time: e.t, Value: im.Work})
			}
			continue
		}
		depth++
		e.chargeRestoreAttempt(i)
		target = im.Work
		break
	}
	st := e.sstats
	st.ObserveDepth(depth)
	if target < 0 {
		e.restarts++
		st.Restarts++
		e.set.Clear()
		e.lastGoodSeq = 0
		target = 0
		if e.p.Trace != nil {
			e.p.Trace.add(Event{Kind: EvRestart, Time: e.t})
		}
	} else {
		st.Truncated += uint64(e.set.TruncateAfter(target))
	}
	e.divergedAt = math.Inf(1)
	e.Rollback(target)
	return target
}
