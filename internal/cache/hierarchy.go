package cache

import (
	"fmt"

	"lowvcc/internal/stable"
)

// HierarchyConfig assembles the memory system of the modelled core
// (Silverthorne-like: 32 KB IL0, 24 KB 6-way DL0, 512 KB UL1, 64-entry
// TLBs, 8 fill buffers, 8-entry WCB/EB).
type HierarchyConfig struct {
	IL0, DL0, UL1 Config
	ITLB, DTLB    Config

	// UL1Latency is the UL1 hit latency in cycles; PageWalkCycles the TLB
	// miss penalty. Both are on-chip and scale with the clock, so they are
	// constant in cycles.
	UL1Latency     int
	PageWalkCycles int

	// FillBufferEntries and WCBEntries size the miss-handling buffers.
	FillBufferEntries int
	WCBEntries        int

	// StoresPerCycle and MaxStabilize size the Store Table.
	StoresPerCycle int
	MaxStabilize   int
}

// DefaultHierarchyConfig returns the modelled core's memory system.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		IL0:  Config{Name: "IL0", Sets: 64, Ways: 8, LineBytes: 64},
		DL0:  Config{Name: "DL0", Sets: 64, Ways: 6, LineBytes: 64},
		UL1:  Config{Name: "UL1", Sets: 1024, Ways: 8, LineBytes: 64},
		ITLB: Config{Name: "ITLB", Sets: 16, Ways: 4, LineBytes: 4096},
		DTLB: Config{Name: "DTLB", Sets: 16, Ways: 4, LineBytes: 4096},

		UL1Latency:        12,
		PageWalkCycles:    30,
		FillBufferEntries: 8,
		WCBEntries:        8,
		StoresPerCycle:    1,
		MaxStabilize:      4,
	}
}

// TimingMode is the hierarchy's view of the active clock plan.
type TimingMode struct {
	// Interrupted: SRAM writes are cut short and stabilize over N cycles.
	Interrupted bool
	// N is the stabilization cycle count.
	N int
	// Avoid enables the avoidance mechanisms (fill stalls, STable).
	// Interrupted && !Avoid is the unsafe validation mode.
	Avoid bool
	// MemCycles is the off-chip latency in cycles at the current frequency
	// (constant in time, so it varies with the plan).
	MemCycles int
}

// HierarchyStats aggregates cross-block counters.
type HierarchyStats struct {
	Loads, Stores, Fetches uint64
	TLBWalks               uint64
	// STableForwards counts loads served by the Store Table.
	STableForwards uint64
	// RepairedDestructions counts stabilizing DL0 entries destroyed by a
	// load's set access and repaired by the store-replay mechanism.
	RepairedDestructions uint64
	// CorruptConsumed counts loads that consumed scrambled data — must stay
	// zero whenever avoidance is active.
	CorruptConsumed uint64
	// IntegrityErrors counts oracle mismatches on clean reads (simulator
	// self-check; any nonzero value is a modelling bug).
	IntegrityErrors uint64
	// DL0ReplayStallCycles counts port-hold cycles due to store replays.
	DL0ReplayStallCycles uint64
}

// Hierarchy is the full memory system. Not goroutine-safe.
type Hierarchy struct {
	cfg  HierarchyConfig
	mode TimingMode

	IL0, DL0, UL1, ITLB, DTLB *Cache
	FB, WCB                   *Buffer
	STab                      *stable.Table

	// dFreeAt serializes the data side: the single load/store unit performs
	// at most one DL0 access per cycle *in program order*, so an access
	// delayed by a TLB walk or port hold pushes every younger access
	// behind it. This is both how the in-order LSU behaves and what keeps
	// simulated access times monotone with issue order.
	dFreeAt int64

	// itlbMemo and dtlbMemo memoize the last successful translation per
	// TLB (page and hit way), so the common run of same-page accesses
	// skips the port wait and the set scan. The fast path re-verifies the
	// memoized entry and replays a hit's exact side effects, so the memo
	// is invisible in results and statistics (equivalence-tested).
	itlbMemo, dtlbMemo tlbMemo
	// noTLBMemo disables the memo (test hook for the equivalence test).
	noTLBMemo bool

	// warmITLB/warmDTLB/warmDL0 memoize the warm path's last access per
	// block. A repeat of the immediately preceding access is a state no-op
	// (the touched way is already most-recent, residency cannot have
	// changed in between, and a failed fill fails again), so the memo skip
	// is state-identical to re-walking the block — it only removes probe
	// and LRU-early-out work from the warm hot loop. warmDL0 additionally
	// carries the dirty mark so a store to the memoized line can dirty it
	// without re-probing.
	warmITLB, warmDTLB, warmDL0 warmMemo

	// lineVer is the integrity oracle: the store version of each line
	// (absent = version 0).
	lineVer lineTable
	// sigMemo is the lazy oracle cache: a small direct-mapped memo of line
	// signatures, keyed by line address. A slot is trusted only while its
	// recorded version is current, and the only writer of lineVer
	// (CommitStore) refreshes the matching slot in place, so a memo hit can
	// skip both the version lookup and the signature hash. Slots cover the
	// line/page mix one access touches (DL0 line, UL1 line, TLB page).
	sigMemo [sigMemoSlots]sigMemoEntry
	// noSigMemo disables the signature memo (fast-vs-slow test hook).
	noSigMemo bool
	stats     HierarchyStats
}

// sigMemoSlots sizes the signature memo; must be a power of two.
const sigMemoSlots = 8

// sigMemoEntry is one memoized (line, version) -> signature binding.
type sigMemoEntry struct {
	line  uint64
	sig   uint64
	ver   uint32
	valid bool
}

// tlbMemo is one TLB's last-translation memo.
type tlbMemo struct {
	page  uint64
	way   int
	valid bool
}

// warmMemo is one block's last-warm-access memo (see the warmITLB field
// doc). line is the block's line/page address; set/way locate the resident
// copy; dirty mirrors the DL0 dirty flag for the store fast path.
type warmMemo struct {
	line     uint64
	set, way int
	dirty    bool
	valid    bool
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	h := &Hierarchy{cfg: cfg}
	var err error
	if h.IL0, err = New(cfg.IL0); err != nil {
		return nil, err
	}
	if h.DL0, err = New(cfg.DL0); err != nil {
		return nil, err
	}
	if h.UL1, err = New(cfg.UL1); err != nil {
		return nil, err
	}
	if h.ITLB, err = New(cfg.ITLB); err != nil {
		return nil, err
	}
	if h.DTLB, err = New(cfg.DTLB); err != nil {
		return nil, err
	}
	if cfg.FillBufferEntries <= 0 || cfg.WCBEntries <= 0 {
		return nil, fmt.Errorf("cache: buffers need positive entry counts")
	}
	h.FB = NewBuffer("FB", cfg.FillBufferEntries)
	h.WCB = NewBuffer("WCB/EB", cfg.WCBEntries)
	h.STab = stable.New(cfg.StoresPerCycle, cfg.MaxStabilize)
	h.mode = TimingMode{MemCycles: 100}
	return h, nil
}

// MustNewHierarchy is NewHierarchy for static configurations.
func MustNewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h, err := NewHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Stats returns a snapshot of the aggregate counters.
func (h *Hierarchy) Stats() HierarchyStats { return h.stats }

// Mode returns the active timing mode.
func (h *Hierarchy) Mode() TimingMode { return h.mode }

// SetMode reconfigures every block for a new clock plan (the Vcc
// controller's job: counters and STable sizing change, nothing else).
func (h *Hierarchy) SetMode(m TimingMode) {
	if m.Interrupted && (m.N < 1 || m.N > h.cfg.MaxStabilize) {
		panic(fmt.Sprintf("cache: mode N=%d out of range", m.N))
	}
	if m.MemCycles < 1 {
		panic("cache: MemCycles must be positive")
	}
	h.mode = m
	for _, c := range []*Cache{h.IL0, h.DL0, h.UL1, h.ITLB, h.DTLB} {
		c.SetIRAW(m.Interrupted, m.N, m.Avoid)
		// MSHR generations must outlive the largest access-time skew: a
		// few off-chip round trips of completion lead plus TLB walks and
		// stabilization holds, each an independent config knob. 8x the sum
		// matches the default plans' slack factor.
		c.EnsureInFlightHorizon(8 * int64(m.MemCycles+h.cfg.PageWalkCycles+m.N))
	}
	h.FB.SetIRAW(m.Interrupted, m.N, m.Avoid)
	h.WCB.SetIRAW(m.Interrupted, m.N, m.Avoid)
	if m.Interrupted && m.Avoid {
		h.STab.SetStabilizeCycles(m.N)
	} else {
		h.STab.SetStabilizeCycles(0)
	}
}

// computeSig hashes (line, version) into the oracle signature.
func computeSig(line uint64, v uint32) uint64 {
	x := line ^ uint64(v)<<48 ^ 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

// sig returns the oracle line signature for a line at its current version,
// lazily: the hash is computed on first touch and memoized until the line
// is written (bumpLineVer refreshes the slot in place) or the slot is
// reused for another line. A valid slot's version is always current —
// CommitStore is the only version writer and it goes through bumpLineVer —
// so a memo hit serves the signature without consulting the version table.
func (h *Hierarchy) sig(line uint64) uint64 {
	if !h.noSigMemo {
		e := &h.sigMemo[(line>>6)&(sigMemoSlots-1)]
		if e.valid && e.line == line {
			return e.sig
		}
		v := uint32(h.lineVer.get(line))
		s := computeSig(line, v)
		*e = sigMemoEntry{line: line, sig: s, ver: v, valid: true}
		return s
	}
	return computeSig(line, uint32(h.lineVer.get(line)))
}

// bumpLineVer advances the oracle version of line (a committed store) and
// refreshes the memoized signature so a stale one can never be served.
func (h *Hierarchy) bumpLineVer(line uint64) {
	v := uint32(h.lineVer.get(line)) + 1
	h.lineVer.put(line, int64(v))
	if !h.noSigMemo {
		h.sigMemo[(line>>6)&(sigMemoSlots-1)] = sigMemoEntry{
			line: line, sig: computeSig(line, v), ver: v, valid: true,
		}
	}
}

// SetFastPaths enables or disables every hierarchy-level fast path — the
// cached set state of all five cache blocks and their sram arrays, the
// per-set corrupt-count summary, the lazy signature memo and the STable
// probe early-outs (enabled by default). The TLB translation memo has its own
// equivalence-tested hook and is not affected. Benchmark-baseline and
// equivalence-test hook; call right after construction.
func (h *Hierarchy) SetFastPaths(enabled bool) {
	for _, c := range []*Cache{h.IL0, h.DL0, h.UL1, h.ITLB, h.DTLB} {
		c.SetFastPaths(enabled)
	}
	h.noSigMemo = !enabled
	h.STab.SetFastPath(enabled)
}

// translate runs addr through the given TLB and reports the cycle at which
// translation is available plus whether the access walked (was delayed at
// all). It is the single shared front half of FetchInst, Load and
// CommitStore — one memo guard instead of three near-identical call sites.
//
// The memo fast path handles the dominant case — a repeat access to the
// page this TLB translated last, with no port hold pending at cycle — in
// O(1): LookupAt re-verifies the memoized entry and replays a hit's exact
// side effects, and skipping WaitPorts is free because a hold-free cycle
// waits zero and charges nothing. Anything else (page change, hold, memo
// miss on a changed entry) falls back to the full path, which keeps the
// memo exactly equivalent to always scanning.
func (h *Hierarchy) translate(tlb *Cache, memo *tlbMemo, cycle int64, addr uint64) (t int64, walked bool) {
	if memo.valid && !h.noTLBMemo && memo.page == tlb.LineAddr(addr) && !tlb.Busy(cycle) {
		if tlb.LookupAt(cycle, addr, memo.way) {
			return cycle, false
		}
	}
	t = tlb.WaitPorts(cycle)
	if way, hit := tlb.Lookup(t, addr); hit {
		memo.page, memo.way, memo.valid = tlb.LineAddr(addr), way, true
		return t, t != cycle
	}
	memo.valid = false // the walk's fill is not readable until after t
	h.stats.TLBWalks++
	t += int64(h.cfg.PageWalkCycles)
	tlb.Fill(t, addr, h.sig(tlb.LineAddr(addr)))
	return t, t != cycle
}

// ul1Access reads (or writes) a line in UL1, going to memory on a miss.
// It returns the completion cycle.
func (h *Hierarchy) ul1Access(cycle int64, addr uint64, write bool) int64 {
	t := h.UL1.WaitPorts(cycle)
	line := h.UL1.LineAddr(addr)
	if rdy, ok := h.UL1.InFlightReady(line, t); ok {
		// Merge with the outstanding fill of this line.
		return rdy
	}
	way, hit := h.UL1.Lookup(t, addr)
	if hit {
		set := h.UL1.SetOf(addr)
		// Physical set read: violation semantics apply when the avoidance
		// policy is off.
		h.UL1.ReadData(t, set, way)
		if write {
			h.UL1.MarkDirty(set, way)
			h.UL1.WriteData(t, set, way, h.sig(line))
			hold := t // the write occupies the ports for its cycle
			if m := h.mode; m.Interrupted && m.Avoid && m.N > 0 {
				hold = t + int64(m.N)
			}
			h.UL1.HoldPorts(t, hold)
		}
		return t + int64(h.cfg.UL1Latency)
	}
	done := t + int64(h.mode.MemCycles)
	h.UL1.MarkInFlight(line, done)
	_, _, _, ok := h.UL1.Fill(done, addr, h.sig(line))
	_ = ok // a full-disabled UL1 set simply bypasses; timing is the same
	if write {
		if w2, hit2 := h.UL1.Lookup(done, addr); hit2 {
			h.UL1.MarkDirty(h.UL1.SetOf(addr), w2)
		}
	}
	return done
}

// missFlow handles an L1 miss for l1 (IL0 or DL0): allocate a fill buffer,
// access UL1 (and memory beyond), install the line, and send any dirty
// victim through the WCB/EB. It returns the cycle at which the missing data
// is available.
func (h *Hierarchy) missFlow(l1 *Cache, cycle int64, addr uint64) int64 {
	line := l1.LineAddr(addr)
	if rdy, ok := l1.InFlightReady(line, cycle); ok {
		// A fill of this line is already outstanding: merge with it.
		return rdy
	}
	start := h.FB.Reserve(cycle)
	ready := h.ul1Access(start, addr, false)
	h.FB.Commit(start, ready)
	l1.MarkInFlight(line, ready)
	victim, dirty, evicted, ok := l1.Fill(ready, addr, h.sig(l1.LineAddr(addr)))
	if !ok {
		// Faulty-Bits: the whole set is disabled; the line stays uncached.
		return ready
	}
	if evicted && dirty {
		// Dirty victim drains through the WCB/EB to UL1 off the critical
		// path; only buffer exhaustion back-pressures the fill.
		wstart := h.WCB.Reserve(ready)
		wdone := h.ul1Access(wstart, victim, true)
		h.WCB.Commit(wstart, wdone)
		if wstart > ready {
			ready = wstart
		}
	}
	if evicted && l1 == h.DL0 {
		h.gcOracleLine(victim)
	}
	return ready
}

// gcOracleLine drops the integrity-oracle version record of a line leaving
// the DL0. A signature is only ever *compared* for a DL0-resident line —
// UL1/IL0/TLB copies are written but never checked — and every DL0 fill
// rewrites the line's signature at the then-current version. So once a line
// leaves the DL0 its version history is unreachable: the version restarts
// at zero on refill, consistently on both the write and the compare side.
// Dropping the record keeps the oracle table at DL0 size instead of one
// entry per line ever stored. The GC runs on every configuration —
// including the fast-path-disabled reference, whose table would otherwise
// grow without bound — because the version-reset argument above is
// independent of which lookup path found the victim.
func (h *Hierarchy) gcOracleLine(victim uint64) {
	if i := h.lineVer.find(victim); i >= 0 {
		h.lineVer.deleteAt(i)
	}
	if e := &h.sigMemo[(victim>>6)&(sigMemoSlots-1)]; e.line == victim {
		e.valid = false
	}
}

// OracleLines reports the number of live integrity-oracle version records
// (bounded-growth observability for tests: the GC above keeps it at DL0
// size on every path).
func (h *Hierarchy) OracleLines() int { return h.lineVer.n }

// FetchResult reports an instruction fetch's timing.
type FetchResult struct {
	// ReadyCycle is when the fetch group is available for decode.
	ReadyCycle int64
	// Missed reports an IL0 miss; Walked an ITLB walk.
	Missed, Walked bool
}

// FetchInst fetches the line containing pc.
func (h *Hierarchy) FetchInst(cycle int64, pc uint64) FetchResult {
	h.stats.Fetches++
	var res FetchResult
	t, walked := h.translate(h.ITLB, &h.itlbMemo, cycle, pc)
	res.Walked = walked
	t = h.IL0.WaitPorts(t)
	if way, hit := h.IL0.Lookup(t, pc); hit {
		h.IL0.ReadData(t, h.IL0.SetOf(pc), way)
	} else {
		res.Missed = true
		t = h.missFlow(h.IL0, t, pc)
	}
	res.ReadyCycle = t
	return res
}

// LoadResult reports a load's timing and data path.
type LoadResult struct {
	// ReadyCycle is when the loaded value is available.
	ReadyCycle int64
	Missed     bool
	Walked     bool
	// STableForward: the value came from the Store Table (full match).
	STableForward bool
	// ReplayStall is the store-replay port hold the load triggered.
	ReplayStall int
	// CorruptConsumed: the load used scrambled data (unsafe mode only).
	CorruptConsumed bool
}

// Load performs a data load at word address addr.
func (h *Hierarchy) Load(cycle int64, addr uint64) LoadResult {
	h.stats.Loads++
	var res LoadResult
	if cycle < h.dFreeAt {
		cycle = h.dFreeAt
	}
	t, walked := h.translate(h.DTLB, &h.dtlbMemo, cycle, addr)
	res.Walked = walked
	t = h.DL0.WaitPorts(t)
	h.dFreeAt = t + 1

	line := h.DL0.LineAddr(addr)
	set := h.DL0.SetOf(addr)
	word := addr &^ 7

	// Probe the STable and the DL0 in parallel (Figure 10).
	pr := h.STab.Probe(t, word, set)
	way, hit := h.DL0.Lookup(t, addr)

	if hit {
		sig, ok := h.DL0.ReadData(t, set, way)
		switch {
		case pr.Kind == stable.MatchFull:
			// STable provides the data; whatever the set read destroyed is
			// repaired by the replay below.
			res.STableForward = true
			h.stats.STableForwards++
		case pr.Kind == stable.MatchSet:
			// DL0 provides the data (Figure 10, set-only match). The loaded
			// word's bitcells were settled — a stabilizing target word
			// would have produced a full match — even though this model
			// tracks stabilization at line granularity. The replay below
			// repairs whatever the set-wide read destroyed.
		case ok:
			if sig != h.sig(line) {
				h.stats.IntegrityErrors++
			}
		default:
			// Clean-avoidance cores never get here; unsafe mode does.
			res.CorruptConsumed = true
			h.stats.CorruptConsumed++
		}
	} else if pr.Kind == stable.MatchFull {
		// Stored word whose line has since been evicted: the STable still
		// holds the latest value.
		res.STableForward = true
		h.stats.STableForwards++
	}

	if pr.Kind != stable.MatchNone {
		// Repair: re-execute the stores from the oldest match onward on
		// consecutive cycles; each re-enters the STable as a fresh store
		// and rewrites its DL0 word, restoring whatever the set-wide read
		// destroyed. The D-port stalls for the replay duration.
		res.ReplayStall = len(pr.Replay)
		h.stats.DL0ReplayStallCycles += uint64(len(pr.Replay))
		destroyed := h.corruptedWays(set)
		for i, e := range pr.Replay {
			tc := t + int64(i)
			h.STab.Insert(tc, e.Addr, e.Set, e.Data)
			if w, hit2 := h.DL0.Lookup(tc, e.Addr); hit2 {
				h.DL0.WriteData(tc, e.Set, w, h.sig(h.DL0.LineAddr(e.Addr)))
			}
		}
		h.DL0.HoldPorts(t+1, t+int64(len(pr.Replay)))
		if end := t + int64(len(pr.Replay)) + 1; end > h.dFreeAt {
			h.dFreeAt = end
		}
		left := h.corruptedWays(set)
		h.stats.RepairedDestructions += uint64(destroyed - left)
		// A survivor would be an IRAW window without STable coverage — a
		// modelling bug, surfaced through the integrity counter.
		h.stats.IntegrityErrors += uint64(left)
	}

	if !hit {
		res.Missed = true
		t = h.missFlow(h.DL0, t, addr)
	}
	res.ReadyCycle = t
	return res
}

// corruptedWays counts the violation-scrambled entries of a DL0 set — from
// the sram array's eagerly maintained per-set summary on the fast path, by
// rescanning the set's entries on the slow one.
func (h *Hierarchy) corruptedWays(set int) int {
	if !h.noSigMemo { // the hierarchy-level fast-path switch
		return h.DL0.Data().CorruptInSet(set * h.DL0.Config().Ways)
	}
	n := 0
	for w := 0; w < h.DL0.Config().Ways; w++ {
		if h.DL0.CorruptedAt(set, w) {
			n++
		}
	}
	return n
}

// StoreResult reports a store's timing.
type StoreResult struct {
	// DoneCycle is when the store has committed to the DL0 (or WCB).
	DoneCycle int64
	Missed    bool
	Walked    bool
}

// CommitStore commits a store to word address addr with the given data.
// Stores read tags (always stable — only fills write tags, and fills stall
// the ports) and write data; writing into stabilizing cells is safe.
func (h *Hierarchy) CommitStore(cycle int64, addr uint64, data uint64) StoreResult {
	h.stats.Stores++
	var res StoreResult
	if cycle < h.dFreeAt {
		cycle = h.dFreeAt
	}
	t, walked := h.translate(h.DTLB, &h.dtlbMemo, cycle, addr)
	res.Walked = walked
	t = h.DL0.WaitPorts(t)
	h.dFreeAt = t + 1

	line := h.DL0.LineAddr(addr)
	set := h.DL0.SetOf(addr)
	word := addr &^ 7

	way, hit := h.DL0.Lookup(t, addr)
	if !hit {
		// Write-allocate: bring the line in first.
		res.Missed = true
		t = h.missFlow(h.DL0, t, addr)
		if w2, hit2 := h.DL0.Lookup(t, addr); hit2 {
			way, hit = w2, true
		}
	}
	if hit {
		h.bumpLineVer(line)
		h.DL0.WriteData(t, set, way, h.sig(line))
		h.DL0.MarkDirty(set, way)
		h.STab.Insert(t, word, set, data)
	} else {
		// Uncacheable (Faulty-Bits full-set disable): write through.
		wstart := h.WCB.Reserve(t)
		wdone := h.ul1Access(wstart, addr, true)
		h.WCB.Commit(wstart, wdone)
	}
	res.DoneCycle = t
	return res
}

// Functional warm-up replay. WarmFetch, WarmLoad and WarmStore replay the
// access stream of a sample window's warm-up prefix under the
// timing-independent access-order contract (see the package doc): they
// update exactly the state a later access can observe through its *content*
// — tags, valid bits, LRU recency, dirty bits, TLB entries, the integrity
// oracle's versions and the data arrays' settled signatures — in access
// order, and touch nothing timing-visible: no port holds, no stall or
// hit/miss statistics, no in-flight (MSHR) records, no STable entries, no
// stabilization windows, and no movement of the data-side serialization
// point. The state they leave behind is a pure function of the access
// sequence — independent of the clock plan, Vcc level, IRAW mode and the
// cycle the replay runs at — and every write lands settled, so the timed
// engine that takes over at at+1 starts from a warm, fully stable
// hierarchy.

// BeginWarm starts a warm-up replay: it invalidates the warm-path memos,
// whose repeat-skip argument only holds while every access to the memoized
// blocks goes through the warm path — timed execution since the last
// replay may have moved LRU state or evicted the memoized lines.
// core.WarmReplay calls it before replaying.
func (h *Hierarchy) BeginWarm() {
	h.warmITLB.valid = false
	h.warmDTLB.valid = false
	h.warmDL0.valid = false
}

// WarmFetch replays an instruction fetch of the line containing pc. `at`
// anchors the settled writes on the core timeline: installed state is
// readable from at+1, the first cycle the timed engine simulates.
func (h *Hierarchy) WarmFetch(at int64, pc uint64) {
	h.warmTranslate(h.ITLB, &h.warmITLB, at, pc)
	if _, hit := h.IL0.WarmLookup(pc); !hit {
		h.warmMissFlow(h.IL0, at, pc)
	}
}

// WarmLoad replays a data load at word address addr.
func (h *Hierarchy) WarmLoad(at int64, addr uint64) {
	h.warmTranslate(h.DTLB, &h.warmDTLB, at, addr)
	line := h.DL0.LineAddr(addr)
	if h.warmDL0.valid && h.warmDL0.line == line {
		return // repeat of the previous data access: state no-op
	}
	way, hit := h.DL0.WarmLookup(addr)
	if !hit {
		if way, hit = h.warmMissFlow(h.DL0, at, addr); !hit {
			h.warmDL0.valid = false
			return
		}
	}
	h.warmDL0 = warmMemo{line: line, set: h.DL0.SetOf(addr), way: way, valid: true}
}

// WarmStore replays a committed store to word address addr: write-allocate
// into the DL0 plus the dirty mark. Two deliberate non-updates follow from
// the settled-state contract:
//
//   - no STable entry — no warm write is still stabilizing when
//     measurement starts, which is exactly the condition the STable covers;
//   - no oracle version bump and no signature rewrite — versions order
//     writes against reads that could observe torn state, and no warm
//     write is observable mid-stabilization. The array keeps the fill-time
//     signature, which stays equal to h.sig(line) precisely because
//     nothing bumps the version, so the measured span's integrity checks
//     hold. This keeps the warm store hit free of table and array traffic.
func (h *Hierarchy) WarmStore(at int64, addr uint64) {
	h.warmTranslate(h.DTLB, &h.warmDTLB, at, addr)
	line := h.DL0.LineAddr(addr)
	if h.warmDL0.valid && h.warmDL0.line == line {
		if !h.warmDL0.dirty {
			h.DL0.MarkDirty(h.warmDL0.set, h.warmDL0.way)
			h.warmDL0.dirty = true
		}
		return
	}
	way, hit := h.DL0.WarmLookup(addr)
	if !hit {
		way, hit = h.warmMissFlow(h.DL0, at, addr)
	}
	if hit {
		set := h.DL0.SetOf(addr)
		h.DL0.MarkDirty(set, way)
		h.warmDL0 = warmMemo{line: line, set: set, way: way, dirty: true, valid: true}
	} else {
		// Uncacheable (Faulty-Bits full-set disable): write through to UL1.
		h.warmDL0.valid = false
		h.warmUL1(at, addr, true)
	}
}

// warmTranslate touches the TLB entry for addr, filling it on a miss; a
// repeat of the TLB's previous page (the dominant case) is a state no-op
// and returns through the memo.
func (h *Hierarchy) warmTranslate(tlb *Cache, memo *warmMemo, at int64, addr uint64) {
	page := tlb.LineAddr(addr)
	if memo.valid && memo.line == page {
		return
	}
	if _, hit := tlb.WarmLookup(addr); !hit {
		tlb.WarmFill(at, addr, h.sig(page))
	}
	*memo = warmMemo{line: page, valid: true}
}

// warmUL1 touches (or dirties) addr's line in UL1, filling on a miss; a
// functional mirror of ul1Access with memory beyond UL1 stateless as ever.
func (h *Hierarchy) warmUL1(at int64, addr uint64, write bool) {
	line := h.UL1.LineAddr(addr)
	set := h.UL1.SetOf(addr)
	way, hit := h.UL1.WarmLookup(addr)
	if !hit {
		var ok bool
		_, way, _, _, ok = h.UL1.WarmFill(at, addr, h.sig(line))
		if !ok {
			return // full-set disabled: the line bypasses, as on the timed path
		}
	}
	if write {
		h.UL1.MarkDirty(set, way)
		h.UL1.WarmWrite(at, set, way, h.sig(line))
	}
}

// warmMissFlow is missFlow's functional mirror for an L1 (IL0 or DL0) miss:
// UL1 access, line install, dirty-victim writeback into UL1, and the oracle
// GC for lines leaving the DL0. It returns the installed way; ok is false
// when the set is fully disabled and the line stays uncached.
func (h *Hierarchy) warmMissFlow(l1 *Cache, at int64, addr uint64) (way int, ok bool) {
	h.warmUL1(at, addr, false)
	victim, way, dirty, evicted, ok := l1.WarmFill(at, addr, h.sig(l1.LineAddr(addr)))
	if !ok {
		return 0, false
	}
	if evicted && dirty {
		h.warmUL1(at, victim, true)
	}
	if evicted && l1 == h.DL0 {
		h.gcOracleLine(victim)
	}
	return way, true
}

// ViolationReads sums the violating reads across every block's data array
// (the ground-truth corruption signal for the validation tests).
func (h *Hierarchy) ViolationReads() uint64 {
	var total uint64
	for _, c := range []*Cache{h.IL0, h.DL0, h.UL1, h.ITLB, h.DTLB} {
		total += c.Data().Stats().ViolationReads
	}
	return total
}

// CollateralDestructions sums set-read destructions across the hierarchy.
func (h *Hierarchy) CollateralDestructions() uint64 {
	var total uint64
	for _, c := range []*Cache{h.IL0, h.DL0, h.UL1, h.ITLB, h.DTLB} {
		total += c.Data().Stats().CollateralDestructions
	}
	return total
}

// TotalBits sums SRAM capacity for the area accounting.
func (h *Hierarchy) TotalBits() int {
	total := 0
	for _, c := range []*Cache{h.IL0, h.DL0, h.UL1, h.ITLB, h.DTLB} {
		total += c.TotalBits()
	}
	return total
}
