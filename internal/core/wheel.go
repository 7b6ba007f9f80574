package core

import (
	"math"
	"math/bits"
)

// wheelBits sizes the timing wheel: 64 buckets covers the common deferred
// horizons (bypass writes, long-latency heads-ups) in one lap; far-future
// events (deep load misses at low frequency) simply stay in their bucket
// across laps and are re-examined once per lap, which keeps insertion O(1)
// with no overflow structure. 64 is also deliberate: bucket occupancy fits
// one uint64 mask, so scans touch only non-empty buckets.
const (
	wheelBits = 6
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// wheel is a bucketed timing wheel for deferred pipeline events, indexed by
// cycle mod wheelSize. Entries carry absolute due-cycles, so a bucket can
// hold events for several laps at once; dispatch filters on exact due-cycle.
// Replaces the seed engine's per-cycle linear scan of a flat wake slice:
// dispatch is O(due events + same-bucket future events) instead of
// O(all pending events) every cycle.
type wheel struct {
	buckets [wheelSize][]wake
	occ     uint64 // bit i set iff buckets[i] is non-empty
	pending int
}

// clear empties the wheel, keeping bucket capacity (Reset reuse path).
func (w *wheel) clear() {
	for i := range w.buckets {
		w.buckets[i] = w.buckets[i][:0]
	}
	w.occ = 0
	w.pending = 0
}

// push schedules e; e.at must be strictly in the future of the cycle being
// executed (the pipeline never schedules same-cycle work for itself).
func (w *wheel) push(e wake) {
	i := int(e.at) & wheelMask
	w.buckets[i] = append(w.buckets[i], e)
	w.occ |= 1 << uint(i)
	w.pending++
}

// bucket returns the bucket due at cycle, for in-place dispatch. The caller
// must call noteDrained afterwards so the occupancy mask stays exact.
func (w *wheel) bucket(cycle int64) *[]wake {
	return &w.buckets[int(cycle)&wheelMask]
}

// noteDrained updates the occupancy bit of cycle's bucket after dispatch.
func (w *wheel) noteDrained(cycle int64) {
	i := int(cycle) & wheelMask
	if len(w.buckets[i]) == 0 {
		w.occ &^= 1 << uint(i)
	}
}

// nextAfter returns the earliest pending due-cycle strictly after cycle, or
// math.MaxInt64 when the wheel is empty. The pipeline never runs past a
// pending event, so no entry can be due at or before cycle. The occupancy
// mask limits the scan to non-empty buckets.
func (w *wheel) nextAfter(cycle int64) int64 {
	if w.pending == 0 {
		return math.MaxInt64
	}
	best := int64(math.MaxInt64)
	for m := w.occ; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		for j := range w.buckets[i] {
			if at := w.buckets[i][j].at; at > cycle && at < best {
				best = at
			}
		}
	}
	return best
}
