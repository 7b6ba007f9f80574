// Package stable implements the Store Table (STable) of Section 4.4 — the
// IRAW-avoidance mechanism for frequently written cache-like blocks (the
// DL0 data cache).
//
// Stores update the DL0 at commit time; at low Vcc those writes stabilize
// over N cycles. Instead of stalling every load for N cycles after every
// store, the STable tracks the address and data of the last
// storesPerCycle*N committed stores (the only entries that can still be
// stabilizing) in latch cells that operate in a single cycle at low Vcc.
// Loads probe it in parallel with the DL0:
//
//   - no match: the common case, nothing to do;
//   - full address match: the STable forwards the data;
//   - set-only match: the DL0 provides the data;
//
// and in both match cases further cache accesses stall while the matching
// stores are *repeated* from the oldest match onward, repairing whatever
// the set-wide read may have destroyed.
package stable

import (
	"fmt"
	"slices"
)

// Entry is one STable slot: a committed store whose DL0 write may still be
// stabilizing.
type Entry struct {
	Valid bool
	// Addr is the stored word address; Set is the DL0 set it maps to
	// (needed for set-only matches).
	Addr uint64
	Set  int
	Data uint64
	// Cycle is the commit cycle of the store.
	Cycle int64
	// seq orders inserts within a cycle.
	seq uint64
}

// MatchKind classifies a load's probe result.
type MatchKind int

const (
	// MatchNone: the load touches no recently stored word or set.
	MatchNone MatchKind = iota
	// MatchSet: the load's DL0 set holds a possibly-stabilizing store, but
	// a different address; the DL0 provides the data, then stores replay.
	MatchSet
	// MatchFull: the load reads a recently stored word; the STable
	// forwards the data, then stores replay.
	MatchFull
)

// String implements fmt.Stringer.
func (k MatchKind) String() string {
	switch k {
	case MatchNone:
		return "none"
	case MatchSet:
		return "set"
	case MatchFull:
		return "full"
	default:
		return fmt.Sprintf("MatchKind(%d)", int(k))
	}
}

// Stats counts STable activity.
type Stats struct {
	Inserts           uint64
	Probes            uint64
	FullMatches       uint64
	SetMatches        uint64
	Forwards          uint64 // loads served data by the STable
	ReplayedStores    uint64
	ReplayStallCycles uint64
}

// Table is the Store Table. Not goroutine-safe.
type Table struct {
	entries []Entry
	// next is the round-robin replacement cursor: each cycle the entries
	// holding the stores that have just stabilized are the ones replaced.
	next int
	// active is storesPerCycle*N for the current Vcc level; the remaining
	// physical entries are disabled (Section 4.4: "The Vcc controller sets
	// the number of entries that must be checked").
	active int

	storesPerCycle int
	lastTick       int64
	seq            uint64

	// validCount counts the Valid entries among entries[0:active], so an
	// idle tick can advance the cursor without walking the window.
	validCount int
	// replayBuf backs ProbeResult.Replay so matching probes do not
	// allocate; see the Probe doc for the aliasing contract.
	replayBuf []Entry

	stats Stats
}

// New returns an STable with capacity for maxN stabilization cycles at the
// given commit width ("the size required by the largest number of IRAW
// cycles allowed"). A store committed at cycle c is dangerous to set reads
// during cycles c..c+N, so each commit slot must survive N+1 round-robin
// steps: the physical size is storesPerCycle*(maxN+1). This matches the
// paper's example ("one store per cycle, write operations require 2 cycles
// to stabilize, the STable has 2 entries"), whose 2-cycle figure counts the
// write cycle plus one stabilization cycle (N=1 here).
func New(storesPerCycle, maxN int) *Table {
	t := new(Table)
	t.Reset(storesPerCycle, maxN)
	return t
}

// Reset returns the table to the state New(storesPerCycle, maxN) builds:
// every entry invalid, the cursor and clock at zero, the table disabled
// (N = 0) and the counters cleared. The entry and replay buffers are
// cleared in place and reallocated only when too small.
func (t *Table) Reset(storesPerCycle, maxN int) {
	if storesPerCycle <= 0 || maxN <= 0 {
		panic(fmt.Sprintf("stable: invalid sizing %d x %d", storesPerCycle, maxN))
	}
	n := storesPerCycle * (maxN + 1)
	*t = Table{
		entries:        slices.Grow(t.entries[:0], n)[:n],
		storesPerCycle: storesPerCycle,
		replayBuf:      t.replayBuf[:0],
	}
	clear(t.entries)
}

// SetStabilizeCycles reconfigures the active entry count for N (0 disables
// the table entirely).
func (t *Table) SetStabilizeCycles(n int) {
	if n < 0 || (n > 0 && t.storesPerCycle*(n+1) > len(t.entries)) {
		panic(fmt.Sprintf("stable: N=%d out of range for %d entries", n, len(t.entries)))
	}
	if n == 0 {
		t.active = 0
		for i := range t.entries {
			t.entries[i].Valid = false
		}
		t.validCount = 0
		return
	}
	t.active = t.storesPerCycle * (n + 1)
	// validCount describes entries[0:active]. A resize moves that window
	// over entries the seed logic deliberately leaves in place — a shrink
	// hides valid entries, a later grow re-exposes them — so recount.
	t.validCount = 0
	for i := 0; i < t.active; i++ {
		if t.entries[i].Valid {
			t.validCount++
		}
	}
}

// Active returns the number of enabled entries.
func (t *Table) Active() int { return t.active }

// Size returns the physical entry count.
func (t *Table) Size() int { return len(t.entries) }

// Stats returns a snapshot of the counters.
func (t *Table) Stats() Stats { return t.stats }

// tick advances the round-robin clock to `cycle`: for every elapsed cycle,
// storesPerCycle entries are either consumed by Insert or invalidated
// ("if new store instructions do not exist, the corresponding entries are
// simply invalidated") — entries only describe stores young enough to be
// stabilizing.
func (t *Table) tick(cycle int64) {
	if t.active == 0 {
		return
	}
	elapsed := cycle - t.lastTick
	if elapsed <= 0 {
		return
	}
	if elapsed > int64(t.active) {
		elapsed = int64(t.active)
	}
	if t.validCount == 0 && t.next < t.active {
		// Nothing in the window to invalidate: advance the cursor
		// arithmetically — exactly where the walk below would leave it.
		// (A stale out-of-window cursor after a SetStabilizeCycles shrink
		// takes the walk, which also clears that slot as the seed did.)
		t.next = (t.next + int(elapsed)*t.storesPerCycle) % t.active
	} else {
		for e := int64(0); e < elapsed*int64(t.storesPerCycle); e++ {
			if t.entries[t.next].Valid {
				t.entries[t.next].Valid = false
				if t.next < t.active {
					t.validCount--
				}
			}
			// Modulo, not a wrap-on-equal: the cursor may start at or
			// beyond active after a shrink and must renormalize exactly as
			// the seed arithmetic did.
			t.next = (t.next + 1) % t.active
		}
	}
	// Rewind: invalidation walked the cursor; inserts this cycle reuse the
	// slots just freed, so step back storesPerCycle positions.
	t.next = (t.next + t.active - t.storesPerCycle) % t.active
	t.lastTick = cycle
}

// Insert records a store committing at `cycle` to word address addr in DL0
// set `set`. It must be called at most storesPerCycle times per cycle.
func (t *Table) Insert(cycle int64, addr uint64, set int, data uint64) {
	if t.active == 0 {
		return
	}
	t.tick(cycle)
	t.seq++
	inWindow := t.next < t.active // a stale post-shrink cursor writes outside it
	replacedValid := t.entries[t.next].Valid
	t.entries[t.next] = Entry{Valid: true, Addr: addr, Set: set, Data: data, Cycle: cycle, seq: t.seq}
	t.next = (t.next + 1) % t.active
	if inWindow {
		if replacedValid {
			// The round-robin contract (at most storesPerCycle inserts per
			// cycle) means the reused slot was just invalidated; keep the
			// count right even if a caller overfills.
			t.validCount--
		}
		t.validCount++
	}
	t.stats.Inserts++
}

// ProbeResult is the outcome of a load probe.
type ProbeResult struct {
	Kind MatchKind
	// Data is the forwarded value (valid when Kind == MatchFull).
	Data uint64
	// Replay lists the stores that must be repeated, oldest first ("repeat
	// store operations from the oldest matching entry onwards"). The caller
	// re-executes them on consecutive cycles — each re-enters the table as
	// a fresh store — and the D-cache port stalls for as many cycles.
	Replay []Entry
}

// Probe checks a load at `cycle` against the active entries: addr is the
// word address, set the DL0 set index. A match means the load's set access
// may have destroyed stabilizing store data, so the matching stores replay.
//
// The returned Replay slice aliases a scratch buffer owned by the table:
// it is valid until the next Probe. Callers that need it longer must copy.
func (t *Table) Probe(cycle int64, addr uint64, set int) ProbeResult {
	if t.active == 0 {
		return ProbeResult{Kind: MatchNone}
	}
	t.tick(cycle)
	t.stats.Probes++

	// Find the oldest matching entry (full or set) and the newest full
	// match (which holds the freshest data for forwarding).
	oldestIdx, fullIdx := -1, -1
	var oldestSeq, fullSeq uint64
	for i := 0; i < t.active; i++ {
		e := &t.entries[i]
		if !e.Valid || e.Set != set {
			continue
		}
		if oldestIdx < 0 || e.seq < oldestSeq {
			oldestIdx, oldestSeq = i, e.seq
		}
		if e.Addr == addr && (fullIdx < 0 || e.seq > fullSeq) {
			fullIdx, fullSeq = i, e.seq
		}
	}
	if oldestIdx < 0 {
		return ProbeResult{Kind: MatchNone}
	}
	// Collect the stores to replay: every valid entry in this set from the
	// oldest match onward, in age order. The entries are *invalidated*
	// here — the caller re-executes the stores, which re-enter the table
	// as fresh inserts with fresh stabilization windows (anything less
	// would leave a renewed window without table coverage once the
	// round-robin clock recycles the old slot).
	replay := t.replayBuf[:0]
	for i := 0; i < t.active; i++ {
		e := &t.entries[i]
		if e.Valid && e.Set == set && e.seq >= oldestSeq {
			replay = append(replay, *e)
			e.Valid = false
			t.validCount--
		}
	}
	t.replayBuf = replay
	for i := 1; i < len(replay); i++ {
		for j := i; j > 0 && replay[j].seq < replay[j-1].seq; j-- {
			replay[j], replay[j-1] = replay[j-1], replay[j]
		}
	}
	t.stats.ReplayedStores += uint64(len(replay))
	t.stats.ReplayStallCycles += uint64(len(replay))
	if fullIdx >= 0 {
		t.stats.FullMatches++
		t.stats.Forwards++
		return ProbeResult{Kind: MatchFull, Data: t.entries[fullIdx].Data, Replay: replay}
	}
	t.stats.SetMatches++
	return ProbeResult{Kind: MatchSet, Replay: replay}
}

// Entries returns a copy of the active entries (tests and debugging).
func (t *Table) Entries() []Entry {
	out := make([]Entry, t.active)
	copy(out, t.entries[:t.active])
	return out
}

// Bits returns the latch storage of the table for area accounting: per
// entry one valid bit, a 48-bit address, a set index (12 bits) and the
// maximum store data width (64 bits).
func (t *Table) Bits() int { return len(t.entries) * (1 + 48 + 12 + 64) }
