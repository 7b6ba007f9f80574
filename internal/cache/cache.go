// Package cache implements the cache-like SRAM blocks of the core — IL0,
// DL0, UL1, the TLBs, fill buffers and the write-combining/eviction buffer
// — together with their IRAW-avoidance policies:
//
//   - unfrequently written blocks (IL0, UL1, ITLB, DTLB, WCB/EB, FB) stall
//     every port for N cycles after a fill (Section 4.3);
//   - the frequently written DL0 uses the Store Table for store traffic and
//     fill-stalling for line fills (Section 4.4);
//   - a Faulty-Bits comparison variant disables lines that fail timing at a
//     reduced variation margin (Section 2.2).
//
// Data arrays are backed by sram.Array, so stabilization windows, violating
// reads and set-wide collateral destruction are modelled physically, and the
// integration tests can prove the avoidance policies keep data intact.
//
// # Cached set state
//
// The access hot path works from per-set summaries instead of per-access
// recomputation, over flat host state: no Go maps and no heaps. The
// invariants (all equivalence-fuzzed against the summary-free slow paths,
// which remain selectable via SetFastPaths(false)):
//
//   - Each entry is one lineState record (tag, valid/dirty/disabled flags,
//     validFrom, LRU tick), so a probe touches one cache line per way.
//   - Address decomposition (lineShift/tagShift/setMask) is precomputed at
//     construction and never changes.
//   - validMask/disabledMask mirror the valid/disabled flags bit-per-way and
//     are updated at the only places those flags change: Fill, Invalidate,
//     and DisableFaultyLines. Lookup/Peek/Victim scan only the live ways.
//     The masks say nothing about validFrom — a set bit can still lose the
//     cycle comparison, exactly as in the full scan.
//   - The fault map (disabledMask) changes only on DisableFaultyLines, i.e.
//     on a vcc/mode reconfiguration; nothing on the access path writes it.
//   - tagSum mirrors the live ways' tags as one 8-bit fold per way,
//     rewritten only by Fill; lruOrder mirrors the lru tick ranking as a
//     packed recency list, moved only by touchLRU. Lookup resolves the set
//     in one SWAR compare (full tags verify candidates) and Victim reads
//     the LRU way off the packed order.
//   - The sram.Array keeps per-set ready bounds and corrupt counts,
//     maintained on every write/scramble; a read consults them to skip the
//     set-wide slot walk, and the hierarchy reads corrupt counts in O(1).
//     Only a write or a violation scramble can invalidate those summaries.
//   - The in-flight fill (MSHR) records are generational: two lineTables
//     (open-addressed, keyed by line address) rotated one access-time
//     horizon apart, the older cleared wholesale and reused once none of
//     its records can be consulted again (see MarkInFlight) — observably
//     identical to the lazily pruned single table the reference path keeps.
//   - The hierarchy's integrity-oracle state is lazy and bounded: line
//     signatures memoize until the line is written (bumpLineVer refreshes
//     in place), and version records (a lineTable) are dropped when their
//     line leaves the DL0 — the only place signatures are ever compared —
//     on both the fast and the fast-path-disabled reference paths (see
//     gcOracleLine).
//   - Port holds live in a bitmap ring (holdCal), and the fill and
//     write-combining buffers pick their entry by an argmin scan over at
//     most a handful of entries.
//
// # Timing-independent access-order contract (functional warm-up)
//
// Hierarchy.WarmFetch/WarmLoad/WarmStore replay an access stream without a
// clock: sample-window warm-up (core.WarmReplay) uses them to pre-state the
// memory system before timed measurement. The contract, at every level down
// to UL1 and the TLBs:
//
//   - Access order is the only input. The state a replay leaves behind —
//     tags, valid bits, LRU recency, dirty bits, TLB entries, oracle
//     versions, settled data signatures — is a pure function of the
//     replayed sequence, independent of the clock plan, Vcc, IRAW mode and
//     the cycle at which the replay runs. Victim selection, mask/tagSum
//     maintenance and LRU movement are exactly the timed path's.
//   - Everything is settled. Warm lookups ignore validFrom (no clock to
//     compare against), warm fills and writes land uninterrupted with no
//     stabilization window, and installed lines are readable from the
//     cycle after the replay's anchor — the first cycle the timed engine
//     simulates.
//   - Nothing timing-visible moves. No port holds, no hit/miss/stall
//     statistics, no in-flight (MSHR) records, no STable entries, no
//     data-side serialization: a replay is invisible to every timing
//     mechanism the measured span exercises.
//   - Misses flow structurally, not temporally: an L1 miss touches UL1
//     (filling it on a UL1 miss), installs the line, writes a dirty
//     victim's line back into UL1, and GCs the oracle record of a line
//     leaving the DL0 — the same state transitions missFlow performs,
//     minus buffers, waits and completion times.
//
// Warm stores deliberately skip the STable (no warm write is still
// stabilizing when measurement starts) and the oracle version bump (nothing
// can observe a torn warm write, so the fill-time signature stays equal to
// the oracle's — the consistency the measured span's integrity checks
// verify).
//
// # Warm-state checkpoints
//
// Because warm state is a pure function of the access sequence, it can be
// snapshotted and restored instead of re-replayed: Cache.CaptureWarm /
// Hierarchy.CaptureWarm serialize exactly the access-order state (tags,
// valid/dirty bits, LRU recency, settled data, ready bits) into a
// WarmState, and RestoreWarm rebuilds every derived summary — validMask,
// tagSum, lruOrder, sram ready bounds — from it, so a restored hierarchy
// is indistinguishable from one that replayed the whole prefix live.
// Capture refuses anything timing-visible (port holds, in-flight fills,
// stabilizing writes, corrupt slots): a snapshot is only taken at a quiet
// boundary, which is what makes it shareable across Vcc points and IRAW
// modes. LRU ticks are renumbered to a canonical 1..n ranking at capture
// so snapshots are byte-comparable regardless of how the prefix replay was
// segmented. The fault map (disabled lines) is deliberately NOT serialized:
// it is a (vcc, mode, seed) reconfiguration, so RestoreWarm instead
// verifies the live map is consistent with the snapshot (no valid line on
// a disabled way) and the checkpoint store keys snapshots by fault-map
// configuration only when one installs (see internal/ckpt).
package cache

import (
	"fmt"
	"math/bits"

	"lowvcc/internal/rng"
	"lowvcc/internal/sram"
)

// Config describes one cache-like block.
type Config struct {
	Name      string
	Sets      int // power of two
	Ways      int
	LineBytes int // power of two (page size for TLBs)
	// HitLatency is the extra cycles a hit adds beyond the pipeline's
	// built-in access latency.
	HitLatency int
}

func (c Config) validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %q: Sets %d must be a positive power of two", c.Name, c.Sets)
	}
	if c.Ways <= 0 || c.Ways > 64 {
		return fmt.Errorf("cache %q: Ways %d must be in [1,64] (per-set way masks)", c.Name, c.Ways)
	}
	if c.LineBytes < 2 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: LineBytes %d must be a power of two >= 2", c.Name, c.LineBytes)
	}
	if c.HitLatency < 0 {
		return fmt.Errorf("cache %q: negative HitLatency", c.Name)
	}
	return nil
}

// SizeBytes returns the data capacity.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * c.LineBytes }

// Stats counts cache activity.
type Stats struct {
	Accesses    uint64
	Hits        uint64
	Misses      uint64
	Fills       uint64
	Evictions   uint64
	DirtyEvicts uint64
	// FillStallCycles counts cycles accesses waited out a post-fill
	// stabilization window (the Section 4.3 policy cost).
	FillStallCycles uint64
	DisabledLines   int
}

// Cache is one cache-like SRAM block. Not goroutine-safe.
type Cache struct {
	cfg     Config
	lines   []lineState // entry set*Ways + way
	lruTick uint64
	// inflight tracks outstanding fills per line (MSHR semantics): a
	// second miss to an in-flight line merges with it instead of issuing a
	// duplicate request. Expired records are dropped lazily on probe; on
	// the fast path the records are generational (inflight + inflightOld,
	// see MarkInFlight) so streaming miss traffic cannot accumulate one
	// stale record per line ever missed.
	inflight    lineTable
	inflightOld lineTable
	// inflightHigh is the newest completion stamp ever registered;
	// inflightRotate is the next stamp at which the generations rotate,
	// one inflightHorizon (grown via EnsureInFlightHorizon as the memory
	// round trip grows) past the previous rotation.
	inflightHigh    int64
	inflightRotate  int64
	inflightHorizon int64
	data            *sram.Array

	// validMask and disabledMask summarize the valid/disabled flags of each
	// set, bit per way; waysMask covers the configured ways. See the
	// package-doc invariants.
	validMask    []uint64
	disabledMask []uint64
	waysMask     uint64
	// lruOrder caches each set's recency order as packed 4-bit way indices,
	// least-recent in the low nibble — the same order the lru tick array
	// encodes, updated at the only place ticks are granted (touch). Victim
	// reads the LRU way from the low end instead of rescanning all ways'
	// ticks. Maintained only when Ways <= 8 (lruPacked); larger
	// configurations fall back to the tick scan.
	lruOrder  []uint32
	lruPacked bool
	// tagSum packs an 8-bit fold of each way's tag into one word per set
	// (byte w = fold of way w's tag, maintained at the only place tags
	// change: Fill). Lookup compares all ways in one SWAR operation and
	// verifies only candidate bytes against the full tags, so the common
	// miss costs no per-way tag loads. Allocated only when Ways <= 8.
	tagSum []uint64
	// noFast disables the summary-driven fast paths (Lookup/Victim/Peek
	// bit-scans, MSHR sweeping) in favour of the original full scans — the
	// benchmark baseline and equivalence-fuzz reference. Flip it only right
	// after construction (SetFastPaths).
	noFast bool
	// holds tracks port-busy cycles (fill stabilization windows,
	// Store-Table replays). A fill completing at a future cycle holds the
	// ports only during its window, not from the present.
	holds       holdCal
	n           int  // stabilization cycles (0 = IRAW off)
	interrupted bool // whether writes are interrupted (IRAW clocking)
	avoid       bool // whether the fill-stall avoidance policy is active
	stats       Stats

	lineShift uint
	tagShift  uint // lineShift + log2(Sets): tag extraction without division
	setMask   uint64
}

// lineState is one entry's record.
type lineState struct {
	tag uint64
	// validFrom is the cycle from which the tag match is visible: a fill
	// completes in the future, so the line must not hit before then.
	validFrom int64
	lru       uint64 // recency tick (0 = never touched)

	valid, dirty, disabled bool
}

// New returns an empty cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	entries := cfg.Sets * cfg.Ways
	data, err := sram.New(sram.Config{
		Name:          cfg.Name,
		Entries:       entries, // a line signature (integrity oracle), not the payload
		EntriesPerSet: cfg.Ways,
	})
	if err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:             cfg,
		lines:           make([]lineState, entries),
		data:            data,
		validMask:       make([]uint64, cfg.Sets),
		disabledMask:    make([]uint64, cfg.Sets),
		waysMask:        uint64(1)<<uint(cfg.Ways) - 1,
		inflightHorizon: minInflightHorizon,
	}
	for c.lineShift = 0; 1<<c.lineShift < cfg.LineBytes; c.lineShift++ {
	}
	c.tagShift = c.lineShift
	for 1<<(c.tagShift-c.lineShift) < cfg.Sets {
		c.tagShift++
	}
	c.setMask = uint64(cfg.Sets - 1)
	if cfg.Ways <= 8 {
		c.lruPacked = true
		c.lruOrder = make([]uint32, cfg.Sets)
		var ident uint32
		for w := cfg.Ways - 1; w >= 0; w-- {
			ident = ident<<4 | uint32(w)
		}
		for s := range c.lruOrder {
			c.lruOrder[s] = ident
		}
		c.tagSum = make([]uint64, cfg.Sets)
	}
	return c, nil
}

// tagFold is the 8-bit per-way tag digest stored in tagSum. Equal tags
// always fold equally (no false negatives); fold collisions only cost a
// full-tag verify.
func tagFold(tag uint64) uint64 { return (tag ^ tag>>8) & 0xFF }

// touchLRU grants (set, way) the next recency tick and, on the fast path,
// moves it to the most-recent end of the set's packed order. Ticks and
// packed order encode the same recency ranking: never-touched ways sort by
// ascending way index (the packed order's initial state, matching the tick
// scan's lowest-way tie-break on equal zero ticks), touched ways by tick.
func (c *Cache) touchLRU(set, way int) {
	c.lruTick++
	c.lines[set*c.cfg.Ways+way].lru = c.lruTick
	// Maintained regardless of noFast — like every other summary — so
	// SetFastPaths can be flipped without leaving a stale order behind.
	if !c.lruPacked {
		return
	}
	ord := c.lruOrder[set]
	top := 4 * uint(c.cfg.Ways-1)
	if ord>>top&0xF == uint32(way) {
		return // already most-recent: repeated hits to a hot way are free
	}
	// SWAR find of way's nibble, then splice it out and append at the top.
	x := ord ^ uint32(way)*0x11111111
	pos := uint(bits.TrailingZeros32((x-0x11111111)&^x&0x88888888)) &^ 3
	low := ord & (1<<pos - 1)
	high := ord >> (pos + 4)
	c.lruOrder[set] = low | high<<pos | uint32(way)<<top
}

// MustNew is New for static configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetFastPaths enables or disables the cached-set-state fast paths of this
// block and its backing sram array (enabled by default). The summaries are
// maintained either way; the flag selects whether the access path consults
// them. Benchmark-baseline and equivalence-test hook: flip it only right
// after construction.
func (c *Cache) SetFastPaths(enabled bool) {
	c.noFast = !enabled
	c.data.SetFastPath(enabled)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Data exposes the backing sram array (violation counters for tests).
func (c *Cache) Data() *sram.Array { return c.data }

// SetIRAW configures the write-interruption mode, the stabilization count,
// and whether the fill-stall avoidance policy is active. Interrupted writes
// with avoidance disabled is the unsafe validation mode: reads may then hit
// stabilizing entries and the backing sram array counts the violations.
func (c *Cache) SetIRAW(interrupted bool, n int, avoid bool) {
	if interrupted && n < 1 {
		panic(fmt.Sprintf("cache %q: interrupted writes need n >= 1", c.cfg.Name))
	}
	c.interrupted = interrupted
	c.n = n
	c.avoid = avoid
}

// SetOf returns the set index of addr.
func (c *Cache) SetOf(addr uint64) int { return int((addr >> c.lineShift) & c.setMask) }

// LineAddr returns the line-aligned address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ (uint64(c.cfg.LineBytes) - 1) }

func (c *Cache) tagOf(addr uint64) uint64 { return addr >> c.tagShift }

func (c *Cache) entry(set, way int) int { return set*c.cfg.Ways + way }

// holdHorizon bounds how far back an access's time can trail the newest
// hold registration: accesses are issued in program order but their times
// can float ahead by at most a TLB walk plus a memory round trip. Holds
// older than the horizon below the newest registration can never be
// consulted again.
const holdHorizon = 1 << 13

// calBits sizes the hold calendar. The slot ring aliases cycles that are
// calSize apart and forgets a cycle once max has moved a lap (less one
// word) past it; either is only visible to a query the horizon argument
// rules out as long as calSize-64 >= holdHorizon + the longest window span
// (spans are a few cycles: stabilization windows and short store
// replays), with ample slack here.
const (
	calBits = 14
	calSize = 1 << calBits
	calMask = calSize - 1
)

// holdCal tracks port-held cycles as a bitmap ring: bit c&calMask is set
// iff cycle c is held, for c in (max|63-calSize, max], where max is the
// latest held cycle ever registered. Membership is one bit test, and
// anything beyond max is free without touching the ring (the common case).
// A registration that advances max into a new 64-cycle word first zeroes
// that word whole, wiping what it held one lap earlier: fill windows are
// registered hundreds of cycles ahead, so clearing cycle by cycle would
// cost more than the holds themselves.
type holdCal struct {
	bits [calSize / 64]uint64
	max  int64
}

func (h *holdCal) mark(from, to int64) {
	if to > h.max {
		for w := h.max>>6 + 1; w <= min(to>>6, h.max>>6+calSize/64); w++ {
			h.bits[w&(calSize/64-1)] = 0
		}
		h.max = to
	}
	for t := from; t <= to; t++ { // spans are a few cycles
		h.bits[t&calMask>>6] |= 1 << uint(t&63)
	}
}

func (h *holdCal) busy(cycle int64) bool {
	return cycle <= h.max && cycle > h.max|63-calSize &&
		h.bits[cycle&calMask>>6]>>uint(cycle&63)&1 != 0
}

// idle reports that no hold was ever registered.
func (h *holdCal) idle() bool { return h.max == 0 && h.bits == [calSize / 64]uint64{} }

// firstFree returns the first cycle >= cycle not held.
func (h *holdCal) firstFree(cycle int64) int64 {
	for h.busy(cycle) {
		cycle++
	}
	return cycle
}

// Busy reports whether the block's ports are held at cycle.
func (c *Cache) Busy(cycle int64) bool { return c.holds.busy(cycle) }

// NextFree returns the first cycle > cycle at which the block's ports are
// not held. Unlike WaitPorts it charges nothing: it is the "next event at"
// hook the event-driven pipeline uses to bound idle-cycle skips (hold
// windows only ever shrink into the past between accesses, so the returned
// cycle is exact until the next access registers a new hold).
func (c *Cache) NextFree(cycle int64) int64 {
	return c.holds.firstFree(cycle + 1)
}

// NextHeld returns the first held cycle in (after, before), or before when
// no hold starts in that gap. Like NextFree it charges nothing. The
// event-driven pipeline uses it to bound a skip by a hold whose window was
// registered in the past but opens in the future (a fill completing at a
// future cycle holds the ports only from then); the scan is bounded by the
// gap the caller wants to cross.
func (c *Cache) NextHeld(after, before int64) int64 {
	if c.holds.max <= after {
		return before // no hold extends past `after`: the gap is clear
	}
	for t := after + 1; t < before; t++ {
		if c.holds.busy(t) {
			return t
		}
	}
	return before
}

// HoldPorts marks the ports busy during [from, to] (a fill's stabilization
// window or a Store-Table replay).
func (c *Cache) HoldPorts(from, to int64) {
	if to < from {
		return
	}
	c.holds.mark(from, to)
}

// WaitPorts returns the first cycle >= cycle at which the block may be
// accessed, charging the wait to FillStallCycles.
func (c *Cache) WaitPorts(cycle int64) int64 {
	start := c.holds.firstFree(cycle)
	if start > cycle {
		c.stats.FillStallCycles += uint64(start - cycle)
	}
	return start
}

// Lookup probes the cache at the given cycle. On a hit it updates LRU and
// returns the way. It does not touch the data array (see ReadData).
//
// The fast path scans only the live (valid, enabled) ways from the per-set
// mask, in the same ascending-way order as the full scan, so it hits the
// same way; an empty set short-circuits to a miss without touching the
// entry arrays at all.
func (c *Cache) Lookup(cycle int64, addr uint64) (way int, hit bool) {
	c.stats.Accesses++
	set := c.SetOf(addr)
	tag := c.tagOf(addr)
	if !c.noFast {
		base := set * c.cfg.Ways
		if c.tagSum != nil {
			// SWAR probe: all ways' tag folds compared in one word op;
			// only candidate bytes (fold matches — or the zero-byte
			// detector's occasional false positive, which the full-tag
			// verify rejects) touch the entry arrays. Candidates surface
			// in ascending way order, like the scan.
			live := c.validMask[set] &^ c.disabledMask[set]
			x := c.tagSum[set] ^ tagFold(tag)*0x0101010101010101
			for cand := (x - 0x0101010101010101) &^ x & 0x8080808080808080; cand != 0; cand &= cand - 1 {
				w := bits.TrailingZeros64(cand) >> 3
				if live>>uint(w)&1 == 0 {
					continue
				}
				if l := &c.lines[base+w]; l.tag == tag && cycle >= l.validFrom {
					c.stats.Hits++
					c.touchLRU(set, w)
					return w, true
				}
			}
			c.stats.Misses++
			return 0, false
		}
		for m := c.validMask[set] &^ c.disabledMask[set]; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			if l := &c.lines[base+w]; l.tag == tag && cycle >= l.validFrom {
				c.stats.Hits++
				c.touchLRU(set, w)
				return w, true
			}
		}
		c.stats.Misses++
		return 0, false
	}
	for w := 0; w < c.cfg.Ways; w++ {
		if l := &c.lines[c.entry(set, w)]; l.valid && !l.disabled && l.tag == tag && cycle >= l.validFrom {
			c.stats.Hits++
			c.touchLRU(set, w)
			return w, true
		}
	}
	c.stats.Misses++
	return 0, false
}

// LookupAt probes one specific way — a memoized earlier hit — instead of
// scanning the set. On a match it performs exactly a Lookup hit's side
// effects (access/hit counters, LRU touch) and returns true; on any
// mismatch it returns false with NO side effects, so the caller can fall
// back to the full Lookup without double-counting. The hierarchy's
// per-page TLB translation memo is the intended caller.
func (c *Cache) LookupAt(cycle int64, addr uint64, way int) bool {
	if way < 0 || way >= c.cfg.Ways {
		return false
	}
	set := c.SetOf(addr)
	tag := c.tagOf(addr)
	if l := &c.lines[c.entry(set, way)]; !l.valid || l.disabled || l.tag != tag || cycle < l.validFrom {
		return false
	}
	// Scan-order guard: Lookup hits the lowest matching readable way, and
	// duplicate tags are transiently possible (a line can be refilled into
	// a second way while its first fill is not yet readable). If an
	// earlier way also matches, the memoized way is not the one Lookup
	// would pick — fall back so the LRU touch lands exactly where the full
	// scan would put it.
	if !c.noFast {
		base := set * c.cfg.Ways
		earlier := c.validMask[set] &^ c.disabledMask[set] & (uint64(1)<<uint(way) - 1)
		for m := earlier; m != 0; m &= m - 1 {
			if l := &c.lines[base+bits.TrailingZeros64(m)]; l.tag == tag && cycle >= l.validFrom {
				return false
			}
		}
	} else {
		for w := 0; w < way; w++ {
			if l := &c.lines[c.entry(set, w)]; l.valid && !l.disabled && l.tag == tag && cycle >= l.validFrom {
				return false
			}
		}
	}
	c.stats.Accesses++
	c.stats.Hits++
	c.touchLRU(set, way)
	return true
}

// MarkInFlight registers an outstanding fill of line completing at ready.
//
// On the fast path the records are generational: inserts go to the current
// generation, and when the newest completion stamp crosses the rotation
// point (one holdCal horizon past the previous rotation) the current
// generation becomes the old one and the previous old generation is cleared
// wholesale and reused as the new current one. A dropped record was registered more than a full horizon
// (inflightHorizon) below the newest stamp, and access times trail the
// newest stamp by at most a TLB walk plus a memory round trip, so no
// future probe could have consulted it: dropping is
// observably identical to the lazy per-probe pruning, with no sweep scans,
// and the live tables stay at working-set size instead of accumulating one
// stale record per line ever missed.
func (c *Cache) MarkInFlight(line uint64, ready int64) {
	if !c.noFast && ready > c.inflightHigh {
		c.inflightHigh = ready
		if ready >= c.inflightRotate {
			// Steady-state rotation allocates nothing.
			c.inflight, c.inflightOld = c.inflightOld, c.inflight
			c.inflight.clear()
			c.inflightRotate = ready + c.inflightHorizon
		}
	}
	c.inflight.put(line, ready)
}

// minInflightHorizon floors the generation width of the MSHR record tables.
// The width must exceed how far an access time can trail the newest
// registered completion stamp: a completion stamp leads its access by one
// memory round trip, and concurrent I-/D-side access times skew by at most
// a TLB wait+walk, port-hold windows, and a fill-buffer full stall — a few
// round trips end to end, the same skew bound the hold calendar's horizon
// builds on. The hierarchy scales the horizon with the configured round
// trip (EnsureInFlightHorizon); 2048 covers the default plans (round trip
// <= ~240 cycles) with >2x slack while keeping each generation small
// enough to stay cache-resident.
const minInflightHorizon = 1 << 11

// EnsureInFlightHorizon raises the MSHR generation width to at least h.
// Bump-only: a later, smaller timing mode must not shrink the horizon,
// because records registered under the earlier mode still rely on the
// wider bound before they can be dropped.
func (c *Cache) EnsureInFlightHorizon(h int64) {
	if h > c.inflightHorizon {
		c.inflightHorizon = h
	}
}

// InFlightReady reports an outstanding fill of line that completes at or
// after `now`; expired records are dropped lazily. The current generation
// shadows the old one, exactly as a re-registration overwrites a record.
func (c *Cache) InFlightReady(line uint64, now int64) (int64, bool) {
	t := &c.inflight
	i := t.find(line)
	if i < 0 {
		t = &c.inflightOld
		if i = t.find(line); i < 0 {
			return 0, false
		}
	}
	if r := t.vals[i]; r >= now {
		return r, true
	}
	t.deleteAt(i)
	return 0, false
}

// Peek reports whether addr is present without moving LRU or counters.
func (c *Cache) Peek(addr uint64) bool {
	set := c.SetOf(addr)
	tag := c.tagOf(addr)
	if !c.noFast {
		base := set * c.cfg.Ways
		for m := c.validMask[set] &^ c.disabledMask[set]; m != 0; m &= m - 1 {
			if c.lines[base+bits.TrailingZeros64(m)].tag == tag {
				return true
			}
		}
		return false
	}
	for w := 0; w < c.cfg.Ways; w++ {
		if l := &c.lines[c.entry(set, w)]; l.valid && !l.disabled && l.tag == tag {
			return true
		}
	}
	return false
}

// ReadData performs the physical data-array read of a hit (whole set read;
// any stabilizing co-resident entry is destroyed — the Section 4.3 hazard).
// It returns the 8-byte line signature and whether the read was clean.
func (c *Cache) ReadData(cycle int64, set, way int) (sig uint64, ok bool) {
	return c.data.Read(cycle, c.entry(set, way))
}

// WriteData writes the line signature of (set, way) — a store or a repair —
// under the current interruption mode.
func (c *Cache) WriteData(cycle int64, set, way int, sig uint64) {
	c.data.Write(cycle, c.entry(set, way), sig, c.interrupted, c.n)
}

// Victim selects the fill way for addr's set: an invalid enabled way if one
// exists, else the LRU enabled way. ok is false when every way of the set
// is disabled (Faulty-Bits), in which case the line cannot be cached.
//
// The fast path answers the two common cases from the set masks alone: a
// free enabled way is the lowest bit of enabled&^valid (the same way the
// ascending scan would return), and the LRU scan walks only enabled ways.
// Ties on the LRU tick break toward the lowest way in both paths.
func (c *Cache) Victim(addr uint64) (way int, ok bool) {
	set := c.SetOf(addr)
	if !c.noFast {
		enabled := c.waysMask &^ c.disabledMask[set]
		if free := enabled &^ c.validMask[set]; free != 0 {
			return bits.TrailingZeros64(free), true
		}
		if enabled == 0 {
			return 0, false
		}
		if c.lruPacked {
			// All enabled ways valid: the victim is the least-recent
			// enabled way, read off the packed order's low end.
			ord := c.lruOrder[set]
			for {
				w := int(ord & 0xF)
				if enabled>>uint(w)&1 == 1 {
					return w, true
				}
				ord >>= 4
			}
		}
		base := set * c.cfg.Ways
		best, bestTick := -1, uint64(0)
		for m := enabled; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			if t := c.lines[base+w].lru; best < 0 || t < bestTick {
				best, bestTick = w, t
			}
		}
		return best, true
	}
	best, bestTick := -1, uint64(0)
	for w := 0; w < c.cfg.Ways; w++ {
		l := &c.lines[c.entry(set, w)]
		if l.disabled {
			continue
		}
		if !l.valid {
			return w, true
		}
		if best < 0 || l.lru < bestTick {
			best, bestTick = w, l.lru
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// Fill installs addr's line at the given cycle, returning the evicted
// line's address and dirtiness (meaningful when evicted is true). The tag
// and data writes are interrupted under IRAW clocking, so the block's ports
// are held for the stabilization window ("in case of a fill we stall any
// access to cache", Section 4.3). sig is the line's data signature.
func (c *Cache) Fill(cycle int64, addr uint64, sig uint64) (victimAddr uint64, dirty, evicted, ok bool) {
	way, ok := c.Victim(addr)
	if !ok {
		return 0, false, false, false
	}
	set := c.SetOf(addr)
	victimAddr, dirty, evicted = c.install(set, way, addr, cycle+1) // readable the cycle after the fill write
	if evicted {
		c.stats.Evictions++
		if dirty {
			c.stats.DirtyEvicts++
		}
	}
	c.WriteData(cycle, set, way, sig)
	c.stats.Fills++
	// The fill write occupies the ports during its own cycle in every
	// mode; under IRAW clocking with avoidance the hold extends through
	// the stabilization window (Section 4.3).
	hold := cycle
	if c.interrupted && c.avoid && c.n > 0 {
		hold = cycle + int64(c.n)
	}
	c.HoldPorts(cycle, hold)
	return victimAddr, dirty, evicted, true
}

// install replaces (set, way)'s line with addr's, visible from validFrom,
// maintaining the set summaries and LRU; it reports the evicted line. Fill
// and WarmFill share it.
func (c *Cache) install(set, way int, addr uint64, validFrom int64) (victimAddr uint64, dirty, evicted bool) {
	l := &c.lines[c.entry(set, way)]
	if l.valid {
		evicted, dirty = true, l.dirty
		victimAddr = (l.tag*uint64(c.cfg.Sets) + uint64(set)) << c.lineShift
	}
	*l = lineState{tag: c.tagOf(addr), validFrom: validFrom, lru: l.lru, valid: true}
	if c.tagSum != nil {
		sh := uint(8 * way)
		c.tagSum[set] = c.tagSum[set]&^(0xFF<<sh) | tagFold(l.tag)<<sh
	}
	c.validMask[set] |= 1 << uint(way)
	c.touchLRU(set, way)
	return victimAddr, dirty, evicted
}

// MarkDirty flags (set, way) dirty (a store hit).
func (c *Cache) MarkDirty(set, way int) { c.lines[c.entry(set, way)].dirty = true }

// WarmLookup probes the cache under the functional warm-up contract: it
// resolves addr against the installed lines in the same ascending-way order
// as Lookup, updating LRU on a hit, but it ignores validFrom (warm replay
// treats every installed line as settled — there is no clock to compare
// against) and moves no statistics. Port holds are not consulted: warm
// accesses are timing-free by definition. The probe always uses the set
// summaries (they are maintained regardless of the fast-path switch, and
// the warm path has no summary-free reference to stay equivalent to).
func (c *Cache) WarmLookup(addr uint64) (way int, hit bool) {
	set := c.SetOf(addr)
	tag := c.tagOf(addr)
	base := set * c.cfg.Ways
	live := c.validMask[set] &^ c.disabledMask[set]
	if c.tagSum != nil {
		x := c.tagSum[set] ^ tagFold(tag)*0x0101010101010101
		for cand := (x - 0x0101010101010101) &^ x & 0x8080808080808080; cand != 0; cand &= cand - 1 {
			w := bits.TrailingZeros64(cand) >> 3
			if live>>uint(w)&1 == 0 {
				continue
			}
			if c.lines[base+w].tag == tag {
				c.touchLRU(set, w)
				return w, true
			}
		}
		return 0, false
	}
	for m := live; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if c.lines[base+w].tag == tag {
			c.touchLRU(set, w)
			return w, true
		}
	}
	return 0, false
}

// WarmFill installs addr's line as fully settled state at `at`: victim
// selection and the mask/tagSum/LRU maintenance are exactly Fill's, but no
// statistics move, no ports are held, and the data write lands
// uninterrupted — the line (tag and signature) is readable from at+1, i.e.
// from the first cycle the timed engine simulates after a warm replay
// anchored at `at`. The returned values mirror Fill's; ok is false when the
// whole set is disabled (Faulty Bits), in which case the line stays
// uncached exactly as on the timed path.
func (c *Cache) WarmFill(at int64, addr uint64, sig uint64) (victimAddr uint64, way int, dirty, evicted, ok bool) {
	way, ok = c.Victim(addr)
	if !ok {
		return 0, 0, false, false, false
	}
	set := c.SetOf(addr)
	victimAddr, dirty, evicted = c.install(set, way, addr, at+1)
	c.WarmWrite(at, set, way, sig)
	return victimAddr, way, dirty, evicted, true
}

// WarmWrite lands the line signature of (set, way) as settled data: an
// uninterrupted write at `at`, stable from at+1, with no stabilization
// window regardless of the active IRAW mode. Warm replay's store and fill
// writes go through here so the measured span that follows starts from a
// hierarchy whose physical state does not depend on the clock plan.
func (c *Cache) WarmWrite(at int64, set, way int, sig uint64) {
	c.data.Write(at, c.entry(set, way), sig, false, 0)
}

// LineAddrAt reconstructs the line address held at (set, way); valid is
// false for empty or disabled entries.
func (c *Cache) LineAddrAt(set, way int) (addr uint64, valid bool) {
	l := &c.lines[c.entry(set, way)]
	if !l.valid || l.disabled {
		return 0, false
	}
	return (l.tag*uint64(c.cfg.Sets) + uint64(set)) << c.lineShift, true
}

// CorruptedAt reports whether (set, way)'s data entry holds
// violation-scrambled contents.
func (c *Cache) CorruptedAt(set, way int) bool {
	return c.data.Corrupted(c.entry(set, way))
}

// Invalidate drops addr if present (used by tests and by UL1 inclusion
// handling). The data entry is not scrubbed; a later fill rewrites it.
func (c *Cache) Invalidate(addr uint64) bool {
	set := c.SetOf(addr)
	tag := c.tagOf(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		if l := &c.lines[c.entry(set, w)]; l.valid && l.tag == tag {
			l.valid, l.dirty = false, false
			c.validMask[set] &^= 1 << uint(w)
			return true
		}
	}
	return false
}

// DisableFaultyLines builds a Faulty-Bits fault map: every line fails
// independently with the given probability (derived from the per-cell
// failure probability at the reduced margin and the line's bit count).
// It returns the number of disabled lines.
func (c *Cache) DisableFaultyLines(src *rng.Source, lineFailProb float64) int {
	disabled := 0
	for e := range c.lines {
		if src.Bool(lineFailProb) {
			c.lines[e].disabled = true
			c.lines[e].valid = false
			set, way := e/c.cfg.Ways, e%c.cfg.Ways
			c.disabledMask[set] |= 1 << uint(way)
			c.validMask[set] &^= 1 << uint(way)
			disabled++
		}
	}
	c.stats.DisabledLines = disabled
	return disabled
}

// TotalBits returns tag+data+state storage for area accounting.
func (c *Cache) TotalBits() int {
	entries := c.cfg.Sets * c.cfg.Ways
	tagBits := 48 - int(c.lineShift) // tag width for a 48-bit address space
	stateBits := 2                   // valid + dirty
	return entries*(tagBits+stateBits) + c.cfg.Sets*c.cfg.Ways*c.cfg.LineBytes*8
}

// Buffer models a small fully associative buffer (fill buffers, WCB/EB)
// whose entries are held for a duration: the structures the paper lists
// among the "unfrequently written cache-like blocks". Allocation writes an
// entry, so under IRAW clocking the buffer's ports are held for N cycles
// afterwards.
type Buffer struct {
	name        string
	freeAt      []int64
	holds       holdCal
	n           int
	interrupted bool
	avoid       bool
	reserved    int // entry picked by Reserve, -1 when none

	Allocs          uint64
	FullStallCycles uint64
	FillStallCycles uint64
}

// NewBuffer returns a buffer with the given entry count.
func NewBuffer(name string, entries int) *Buffer {
	if entries <= 0 {
		panic(fmt.Sprintf("cache: buffer %q needs entries > 0", name))
	}
	return &Buffer{name: name, freeAt: make([]int64, entries), reserved: -1}
}

// SetIRAW configures interruption mode (as for Cache).
func (b *Buffer) SetIRAW(interrupted bool, n int, avoid bool) {
	if interrupted && n < 1 {
		panic(fmt.Sprintf("cache: buffer %q interrupted writes need n >= 1", b.name))
	}
	b.interrupted = interrupted
	b.n = n
	b.avoid = avoid
}

// Reserve picks the entry that frees earliest (the lowest-index one among
// ties) and returns the first cycle >= cycle at which it can be allocated
// (waiting out port holds and entry occupancy, charging the respective
// stall counters). The caller computes the completion time and then calls
// Commit.
func (b *Buffer) Reserve(cycle int64) int64 {
	if b.reserved >= 0 {
		panic(fmt.Sprintf("cache: buffer %q Reserve without Commit", b.name))
	}
	start := cycle
	if b.avoid {
		start = b.holds.firstFree(cycle)
		if start > cycle {
			b.FillStallCycles += uint64(start - cycle)
		}
	}
	best := 0
	for i, f := range b.freeAt {
		if f < b.freeAt[best] {
			best = i
		}
	}
	if b.freeAt[best] > start {
		b.FullStallCycles += uint64(b.freeAt[best] - start)
		start = b.freeAt[best]
	}
	b.reserved = best
	return start
}

// Commit allocates the reserved entry from `start` until `until`
// (exclusive), applying the post-write port hold under IRAW clocking.
func (b *Buffer) Commit(start, until int64) {
	if b.reserved < 0 {
		panic(fmt.Sprintf("cache: buffer %q Commit without Reserve", b.name))
	}
	b.freeAt[b.reserved] = until
	b.reserved = -1
	b.Allocs++
	if b.interrupted && b.avoid && b.n > 0 {
		b.holds.mark(start+1, start+int64(b.n))
	}
}

// Acquire is Reserve+Commit for callers that know the hold duration upfront.
func (b *Buffer) Acquire(cycle int64, hold int) int64 {
	start := b.Reserve(cycle)
	b.Commit(start, start+int64(hold))
	return start
}

// Size returns the entry count.
func (b *Buffer) Size() int { return len(b.freeAt) }
