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

	// lineVer is the integrity oracle: the store version of each line
	// (absent = version 0).
	lineVer lineTable
	stats   HierarchyStats
}

// Validate reports whether the memory system is structurally buildable.
// NewHierarchy fails, and the buffer and Store Table constructors panic,
// on the same conditions, so API boundaries that accept user-supplied
// configs — core.Config.Validate — check here first.
func (cfg HierarchyConfig) Validate() error {
	for _, c := range []Config{cfg.IL0, cfg.DL0, cfg.UL1, cfg.ITLB, cfg.DTLB} {
		if err := c.validate(); err != nil {
			return err
		}
	}
	if cfg.FillBufferEntries <= 0 || cfg.WCBEntries <= 0 {
		return fmt.Errorf("cache: buffers need positive entry counts")
	}
	if cfg.UL1Latency < 0 || cfg.PageWalkCycles < 0 {
		return fmt.Errorf("cache: negative UL1Latency %d or PageWalkCycles %d", cfg.UL1Latency, cfg.PageWalkCycles)
	}
	if cfg.StoresPerCycle <= 0 || cfg.MaxStabilize <= 0 {
		return fmt.Errorf("cache: Store Table sizing %d x %d must be positive", cfg.StoresPerCycle, cfg.MaxStabilize)
	}
	return nil
}

// NewHierarchy builds the memory system; reference builds every cache
// block on its reference paths (see New).
func NewHierarchy(cfg HierarchyConfig, reference bool) (*Hierarchy, error) {
	h := new(Hierarchy)
	if err := h.Reset(cfg, reference); err != nil {
		return nil, err
	}
	return h, nil
}

// Reset returns the memory system to the state NewHierarchy(cfg, reference)
// builds: every block reset in place (see Cache.Reset), the oracle table
// emptied, the data side idle and the counters cleared. Blocks are
// allocated only on the first Reset, which NewHierarchy runs.
func (h *Hierarchy) Reset(cfg HierarchyConfig, reference bool) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if h.IL0 == nil {
		h.IL0, h.DL0, h.UL1, h.ITLB, h.DTLB = new(Cache), new(Cache), new(Cache), new(Cache), new(Cache)
		h.FB, h.WCB, h.STab = new(Buffer), new(Buffer), new(stable.Table)
	}
	for _, b := range []struct {
		c   *Cache
		cfg Config
	}{{h.IL0, cfg.IL0}, {h.DL0, cfg.DL0}, {h.UL1, cfg.UL1}, {h.ITLB, cfg.ITLB}, {h.DTLB, cfg.DTLB}} {
		if err := b.c.Reset(b.cfg, reference); err != nil {
			return err
		}
	}
	h.FB.Reset("FB", cfg.FillBufferEntries)
	h.WCB.Reset("WCB/EB", cfg.WCBEntries)
	h.STab.Reset(cfg.StoresPerCycle, cfg.MaxStabilize)
	h.lineVer.clear()
	*h = Hierarchy{cfg: cfg, mode: TimingMode{MemCycles: 100},
		IL0: h.IL0, DL0: h.DL0, UL1: h.UL1, ITLB: h.ITLB, DTLB: h.DTLB,
		FB: h.FB, WCB: h.WCB, STab: h.STab, lineVer: h.lineVer}
	return nil
}

// MustNewHierarchy is NewHierarchy for static configurations.
func MustNewHierarchy(cfg HierarchyConfig, reference bool) *Hierarchy {
	h, err := NewHierarchy(cfg, reference)
	if err != nil {
		panic(err)
	}
	return h
}

// Stats returns a snapshot of the aggregate counters.
func (h *Hierarchy) Stats() HierarchyStats { return h.stats }

// ResetStats zeroes the aggregate counters and every cache block's.
func (h *Hierarchy) ResetStats() {
	h.stats = HierarchyStats{}
	for _, c := range []*Cache{h.IL0, h.DL0, h.UL1, h.ITLB, h.DTLB} {
		c.ResetStats()
	}
}

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

// sig returns the oracle line signature for a line at its current version.
func (h *Hierarchy) sig(line uint64) uint64 {
	return computeSig(line, uint32(h.lineVer.get(line)))
}

// bumpLineVer advances the oracle version of line (a committed store).
func (h *Hierarchy) bumpLineVer(line uint64) {
	h.lineVer.put(line, int64(uint32(h.lineVer.get(line))+1))
}

// translate runs addr through the given TLB and reports the cycle at which
// translation is available plus whether the access walked (was delayed at
// all). It is the single shared front half of FetchInst, Load and
// CommitStore.
func (h *Hierarchy) translate(tlb *Cache, cycle int64, addr uint64) (t int64, walked bool) {
	t = tlb.WaitPorts(cycle)
	if _, hit := tlb.Lookup(t, addr); hit {
		return t, t != cycle
	}
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
}

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
	t, walked := h.translate(h.ITLB, cycle, pc)
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
	t, walked := h.translate(h.DTLB, cycle, addr)
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

// corruptedWays counts the violation-scrambled entries of a DL0 set.
func (h *Hierarchy) corruptedWays(set int) int {
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
	t, walked := h.translate(h.DTLB, cycle, addr)
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

// WarmFetch replays an instruction fetch of the line containing pc. `at`
// anchors the settled writes on the core timeline: installed state is
// readable from at+1, the first cycle the timed engine simulates.
func (h *Hierarchy) WarmFetch(at int64, pc uint64) {
	h.warmTranslate(h.ITLB, at, pc)
	if _, hit := h.IL0.WarmLookup(pc); !hit {
		h.warmMissFlow(h.IL0, at, pc)
	}
}

// WarmLoad replays a data load at word address addr.
func (h *Hierarchy) WarmLoad(at int64, addr uint64) {
	h.warmTranslate(h.DTLB, at, addr)
	if _, hit := h.DL0.WarmLookup(addr); !hit {
		h.warmMissFlow(h.DL0, at, addr)
	}
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
	h.warmTranslate(h.DTLB, at, addr)
	way, hit := h.DL0.WarmLookup(addr)
	if !hit {
		way, hit = h.warmMissFlow(h.DL0, at, addr)
	}
	if hit {
		h.DL0.MarkDirty(h.DL0.SetOf(addr), way)
	} else {
		// Uncacheable (Faulty-Bits full-set disable): write through to UL1.
		h.warmUL1(at, addr, true)
	}
}

// warmTranslate touches the TLB entry for addr, filling it on a miss.
func (h *Hierarchy) warmTranslate(tlb *Cache, at int64, addr uint64) {
	if _, hit := tlb.WarmLookup(addr); !hit {
		tlb.WarmFill(at, addr, h.sig(tlb.LineAddr(addr)))
	}
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

// TotalBits sums SRAM capacity for the area accounting.
func (h *Hierarchy) TotalBits() int {
	total := 0
	for _, c := range []*Cache{h.IL0, h.DL0, h.UL1, h.ITLB, h.DTLB} {
		total += c.TotalBits()
	}
	return total
}
