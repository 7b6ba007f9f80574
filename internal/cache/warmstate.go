package cache

import (
	"fmt"
	"sort"

	"lowvcc/internal/sram"
)

// WarmState is the checkpointable snapshot of one cache-like block whose
// state was produced purely by the functional warm path from reset. It
// holds exactly the access-order state of the warm contract — tags, valid
// and dirty bits, LRU recency, settled data — in a canonical form:
//
//   - LRU ticks are renumbered to 1..n by rank (zero stays zero, LRUTick
//     = n). Tick values are a producer artifact (a monotone grant counter);
//     only their ordering is observable, so renumbering makes snapshots
//     byte-comparable no matter how the producing replay was segmented.
//   - Derived summaries (validMask, tagSum, lruOrder, validFrom, the sram
//     ready bounds) are not stored; RestoreWarm recomputes them exactly.
//   - The fault map (disabled lines) is not stored: it is reinstalled
//     deterministically by the core's reset and keys the snapshot instead.
//
// A WarmState is immutable once captured: restores copy out of it, so one
// snapshot is safely shared read-only across any number of cores.
type WarmState struct {
	Tags []uint64
	// Valid and Dirty are bitsets over entries (set*Ways + way).
	Valid []uint64
	Dirty []uint64
	// LRU holds the normalized recency ticks; LRUTick the grant counter
	// (== number of nonzero ticks after normalization).
	LRU     []uint64
	LRUTick uint64
	Data    *sram.WarmState
}

// CaptureWarm snapshots the block's warm state. It fails if the block
// carries any state a pure functional warm-up from a reset core cannot
// produce: port holds, MSHR records, timed fill visibility stamps, or
// timed/corrupt sram state. The live block is not modified.
func (c *Cache) CaptureWarm() (*WarmState, error) {
	if !c.holds.idle() {
		return nil, fmt.Errorf("cache %q: port holds present — not pure warm state", c.cfg.Name)
	}
	if c.inflight.n != 0 || c.inflightOld.n != 0 {
		return nil, fmt.Errorf("cache %q: in-flight fill records present — not pure warm state", c.cfg.Name)
	}
	entries := len(c.lines)
	s := &WarmState{
		Tags:  make([]uint64, entries),
		Valid: make([]uint64, (entries+63)/64),
		Dirty: make([]uint64, (entries+63)/64),
		LRU:   make([]uint64, entries),
	}
	touched := make([]int, 0, entries)
	for e := range c.lines {
		l := &c.lines[e]
		s.Tags[e] = l.tag
		want := int64(0)
		if l.valid {
			s.Valid[e/64] |= 1 << (e % 64)
			want = 1
		}
		if l.validFrom != want {
			return nil, fmt.Errorf("cache %q: entry %d validFrom %d is not a warm stamp (want %d)",
				c.cfg.Name, e, l.validFrom, want)
		}
		if l.dirty {
			s.Dirty[e/64] |= 1 << (e % 64)
		}
		if l.lru != 0 {
			touched = append(touched, e)
		}
	}
	// Canonical tick renumbering: rank the touched entries by tick (ticks
	// are distinct grants, so the order is total) and renumber 1..n.
	sort.Slice(touched, func(i, j int) bool { return c.lines[touched[i]].lru < c.lines[touched[j]].lru })
	for rank, e := range touched {
		s.LRU[e] = uint64(rank + 1)
	}
	s.LRUTick = uint64(len(touched))
	data, err := c.data.CaptureWarm()
	if err != nil {
		return nil, fmt.Errorf("cache %q: %w", c.cfg.Name, err)
	}
	s.Data = data
	return s, nil
}

// RestoreWarm loads a warm snapshot into the block, which must be freshly
// reset (empty, with its fault map — if any — already installed). The
// snapshot is only read; every derived summary is recomputed from it. A
// valid entry colliding with a disabled line means the snapshot was built
// under a different fault map and is rejected.
func (c *Cache) RestoreWarm(s *WarmState) error {
	entries := len(c.lines)
	if len(s.Tags) != entries || len(s.LRU) != entries ||
		len(s.Valid) != (entries+63)/64 || len(s.Dirty) != (entries+63)/64 {
		return fmt.Errorf("cache %q: warm snapshot shape mismatch", c.cfg.Name)
	}
	for e := range c.lines {
		l := &c.lines[e]
		valid := s.Valid[e/64]&(1<<(e%64)) != 0
		if valid && l.disabled {
			return fmt.Errorf("cache %q: warm snapshot holds entry %d, disabled here — fault-map mismatch", c.cfg.Name, e)
		}
		*l = lineState{tag: s.Tags[e], lru: s.LRU[e], valid: valid,
			dirty: s.Dirty[e/64]&(1<<(e%64)) != 0, disabled: l.disabled}
		if valid {
			l.validFrom = 1
		}
	}
	c.lruTick = s.LRUTick
	for set := 0; set < c.cfg.Sets; set++ {
		base := set * c.cfg.Ways
		var vm uint64
		for w := 0; w < c.cfg.Ways; w++ {
			if c.lines[base+w].valid {
				vm |= 1 << uint(w)
			}
		}
		c.validMask[set] = vm
		if c.tagSum != nil {
			var sum uint64
			for w := 0; w < c.cfg.Ways; w++ {
				sum |= tagFold(c.lines[base+w].tag) << uint(8*w)
			}
			c.tagSum[set] = sum
		}
		if c.lruPacked {
			// Rebuild the packed recency order: ways sorted by (tick, way)
			// ascending, least-recent in the low nibble — the same ranking
			// touchLRU maintains incrementally. Insertion sort over <= 8
			// ways; ties are only possible on zero ticks, where the ascending
			// way index matches the initial packed order.
			var ways [8]int
			for w := 0; w < c.cfg.Ways; w++ {
				ways[w] = w
				for i := w; i > 0; i-- {
					a, b := ways[i-1], ways[i]
					ta, tb := c.lines[base+a].lru, c.lines[base+b].lru
					if ta < tb || (ta == tb && a < b) {
						break
					}
					ways[i-1], ways[i] = b, a
				}
			}
			var ord uint32
			for i := c.cfg.Ways - 1; i >= 0; i-- {
				ord = ord<<4 | uint32(ways[i])
			}
			c.lruOrder[set] = ord
		}
	}
	if err := c.data.RestoreWarm(s.Data); err != nil {
		return fmt.Errorf("cache %q: %w", c.cfg.Name, err)
	}
	return nil
}

// HierarchyWarmState is the warm snapshot of the whole memory system: the
// five cache blocks' warm states. Everything else a warm replay could have
// touched is provably at its reset value after a pure functional warm-up —
// the integrity oracle stays empty (only timed stores bump line versions,
// and the GC only deletes), the STable, buffers, port holds and data-side
// serialization point never move, and the memos are result-invariant
// caches — so CaptureWarm asserts those invariants instead of serializing
// them, and RestoreWarm re-clears the caches.
type HierarchyWarmState struct {
	IL0, DL0, UL1, ITLB, DTLB *WarmState
}

// CaptureWarm snapshots the hierarchy's warm state, failing if any state
// outside the warm contract has moved since reset.
func (h *Hierarchy) CaptureWarm() (*HierarchyWarmState, error) {
	if h.dFreeAt != 0 {
		return nil, fmt.Errorf("cache: data-side serialization point %d moved — not pure warm state", h.dFreeAt)
	}
	if h.lineVer.n != 0 {
		return nil, fmt.Errorf("cache: %d oracle version records present — not pure warm state", h.lineVer.n)
	}
	for _, b := range []*Buffer{h.FB, h.WCB} {
		if b.Allocs != 0 || !b.holds.idle() {
			return nil, fmt.Errorf("cache: buffer %q carries allocations — not pure warm state", b.name)
		}
	}
	s := &HierarchyWarmState{}
	var err error
	if s.IL0, err = h.IL0.CaptureWarm(); err != nil {
		return nil, err
	}
	if s.DL0, err = h.DL0.CaptureWarm(); err != nil {
		return nil, err
	}
	if s.UL1, err = h.UL1.CaptureWarm(); err != nil {
		return nil, err
	}
	if s.ITLB, err = h.ITLB.CaptureWarm(); err != nil {
		return nil, err
	}
	if s.DTLB, err = h.DTLB.CaptureWarm(); err != nil {
		return nil, err
	}
	return s, nil
}

// RestoreWarm loads a warm snapshot into the hierarchy, which must be
// freshly reset (fault maps installed, nothing else touched). The
// result-invariant caches (TLB translation memos, warm memos, signature
// memo) are cleared; they repopulate on demand with identical contents.
func (h *Hierarchy) RestoreWarm(s *HierarchyWarmState) error {
	for _, p := range []struct {
		c *Cache
		w *WarmState
	}{{h.IL0, s.IL0}, {h.DL0, s.DL0}, {h.UL1, s.UL1}, {h.ITLB, s.ITLB}, {h.DTLB, s.DTLB}} {
		if p.w == nil {
			return fmt.Errorf("cache: warm snapshot missing block %q", p.c.cfg.Name)
		}
		if err := p.c.RestoreWarm(p.w); err != nil {
			return err
		}
	}
	h.dFreeAt = 0
	h.itlbMemo.valid = false
	h.dtlbMemo.valid = false
	h.warmITLB.valid = false
	h.warmDTLB.valid = false
	h.warmDL0.valid = false
	for i := range h.sigMemo {
		h.sigMemo[i] = sigMemoEntry{}
	}
	h.lineVer.clear()
	return nil
}
