package sram

import (
	"fmt"
	"slices"
)

// Config describes an SRAM array's organization.
type Config struct {
	// Name identifies the block in statistics ("DL0", "RF", ...).
	Name string
	// Entries is the number of independently addressable entries, each
	// holding one 64-bit word (a register value or a line signature).
	Entries int
	// EntriesPerSet groups entries that are physically read together (the
	// ways of one cache set). Reading any entry of a set exposes every
	// stabilizing entry of that set to destruction. Use 1 for arrays whose
	// entries are read individually (register files, queues).
	EntriesPerSet int
	// ReadPorts and WritePorts bound per-cycle concurrency; 0 means
	// unlimited (port contention modelled elsewhere).
	ReadPorts  int
	WritePorts int
}

func (c Config) validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("sram %q: Entries must be positive, got %d", c.Name, c.Entries)
	}
	if c.EntriesPerSet <= 0 {
		return fmt.Errorf("sram %q: EntriesPerSet must be positive, got %d", c.Name, c.EntriesPerSet)
	}
	if c.Entries%c.EntriesPerSet != 0 {
		return fmt.Errorf("sram %q: Entries (%d) not a multiple of EntriesPerSet (%d)",
			c.Name, c.Entries, c.EntriesPerSet)
	}
	return nil
}

// Stats counts array activity; violation counters are the ground truth the
// integration tests use to prove IRAW avoidance works ("zero violations
// with avoidance on, nonzero with it off at low Vcc").
type Stats struct {
	Reads  uint64
	Writes uint64
	// ViolationReads counts reads whose target entry was still stabilizing.
	ViolationReads uint64
	// CollateralDestructions counts stabilizing entries destroyed because a
	// read touched their set, even though they were not the target.
	CollateralDestructions uint64
	// PortConflicts counts accesses rejected for lack of a free port.
	PortConflicts uint64
}

// Array is a data-carrying SRAM block at cycle granularity. It is not
// goroutine-safe; each simulated core owns its arrays.
type Array struct {
	cfg   Config
	slots []slot
	// maxReady is an upper bound on every entry's ready stamp: reads at or
	// beyond it cannot hit a stabilizing entry anywhere in the array, so
	// the violation/collateral scan is skipped (the overwhelmingly common
	// case outside stabilization windows).
	maxReady int64
	stats    Stats

	readsThisCycle, writesThisCycle int
	portCycle                       int64
}

// slot is one entry's word and timing state, kept together so an access
// touches one host cache line.
type slot struct {
	word  uint64
	ready int64 // cycle from which the entry is readable
	// written is the cycle the latest write started: the entry is
	// stabilizing (dangerous to read) only in [written, ready). Reads
	// before `written` see the previous, settled contents — this matters
	// because callers may stamp fills at future completion times.
	written int64
	// corrupt marks an entry destroyed by an IRAW violation; its word has
	// been scrambled and stays scrambled until rewritten.
	corrupt bool
}

// New returns an Array for cfg with all entries stable and zeroed.
func New(cfg Config) (*Array, error) {
	a := new(Array)
	if err := a.Reset(cfg); err != nil {
		return nil, err
	}
	return a, nil
}

// Reset returns the array to the state New(cfg) builds: every entry stable
// and zeroed, counters and port state cleared. The backing store is cleared
// in place and reallocated only when it is too small for cfg.
func (a *Array) Reset(cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	*a = Array{cfg: cfg, slots: slices.Grow(a.slots[:0], cfg.Entries)[:cfg.Entries]}
	clear(a.slots)
	return nil
}

// MustNew is New for static configurations; it panics on config errors.
func MustNew(cfg Config) *Array {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg }

// Stats returns a snapshot of the activity counters.
func (a *Array) Stats() Stats { return a.stats }

// ResetStats zeroes the activity counters.
func (a *Array) ResetStats() { a.stats = Stats{} }

func (a *Array) checkEntry(entry int) {
	if entry < 0 || entry >= a.cfg.Entries {
		panic(fmt.Sprintf("sram %q: entry %d out of range [0,%d)", a.cfg.Name, entry, a.cfg.Entries))
	}
}

func (a *Array) rollPorts(cycle int64) {
	if cycle != a.portCycle {
		a.portCycle = cycle
		a.readsThisCycle = 0
		a.writesThisCycle = 0
	}
}

// Write stores word into entry during the given cycle. With interrupted set
// (IRAW mode at low Vcc) the entry only becomes readable after
// stabilizeCycles further cycles; otherwise it is readable from the next
// cycle. Write returns false if no write port was free this cycle.
//
// The write itself always succeeds once a port is held, even into a
// stabilizing entry: per Section 4.4, "even if the data in the updated
// location were still stabilizing, correctness is guaranteed because data
// are not read but updated".
func (a *Array) Write(cycle int64, entry int, word uint64, interrupted bool, stabilizeCycles int) bool {
	// entry is bounds-checked by the slice access below (hot path).
	a.rollPorts(cycle)
	if a.cfg.WritePorts > 0 && a.writesThisCycle >= a.cfg.WritePorts {
		a.stats.PortConflicts++
		return false
	}
	a.writesThisCycle++
	e := &a.slots[entry]
	ready := cycle + 1
	if interrupted {
		if stabilizeCycles < 1 {
			panic(fmt.Sprintf("sram %q: interrupted write needs stabilizeCycles >= 1", a.cfg.Name))
		}
		ready += int64(stabilizeCycles)
	}
	*e = slot{word: word, ready: ready, written: cycle}
	if ready > a.maxReady {
		a.maxReady = ready
	}
	a.stats.Writes++
	return true
}

// scramble deterministically corrupts an entry's data, modelling the
// destroyed half-flipped bitcells of an IRAW violation.
func (a *Array) scramble(entry int) {
	e := &a.slots[entry]
	e.word ^= scrambleMask(entry)
	e.corrupt = true
	e.ready = a.portCycle // destroyed cells settle (to wrong values)
}

// scrambleMask is the violation pattern of entry: byte i of the word's
// big-endian form is flipped by 0xA5 ^ (entry+i). Violation data feeds
// recorded results, so TestScrambleMatchesBytePattern pins the pattern.
func scrambleMask(entry int) uint64 {
	var m uint64
	for i := 0; i < 8; i++ {
		m = m<<8 | uint64(byte(0xA5^(entry+i)))
	}
	return m
}

// Read fetches entry's word during cycle. ok reports a clean read. A read
// targeting a stabilizing entry is an IRAW violation: the returned data is
// the scrambled result and the entry stays corrupted. Whether or not the
// target itself was stabilizing, every *other* stabilizing entry in the
// same set is destroyed too (simultaneous set access, Section 4.3).
//
// A zero word with ok=false and no counter movement beyond PortConflicts
// means no read port was free.
func (a *Array) Read(cycle int64, entry int) (word uint64, ok bool) {
	// entry is bounds-checked by the slice accesses below (hot path).
	a.rollPorts(cycle)
	if a.cfg.ReadPorts > 0 && a.readsThisCycle >= a.cfg.ReadPorts {
		a.stats.PortConflicts++
		return 0, false
	}
	a.readsThisCycle++
	a.stats.Reads++

	if cycle >= a.maxReady {
		// Nothing in the array is stabilizing: the read is clean unless the
		// entry still carries an earlier violation's scramble, and no
		// co-resident entry can be destroyed.
		return a.slots[entry].word, !a.slots[entry].corrupt
	}
	violated := false
	if a.stabilizing(cycle, entry) {
		a.stats.ViolationReads++
		a.scramble(entry)
		violated = true
	}
	// Destroy any other stabilizing entry sharing the set.
	setBase := (entry / a.cfg.EntriesPerSet) * a.cfg.EntriesPerSet
	for e := setBase; e < setBase+a.cfg.EntriesPerSet; e++ {
		if e != entry && a.stabilizing(cycle, e) {
			a.stats.CollateralDestructions++
			a.scramble(e)
		}
	}
	return a.slots[entry].word, !violated && !a.slots[entry].corrupt
}

// stabilizing reports whether entry is mid-stabilization at cycle.
func (a *Array) stabilizing(cycle int64, entry int) bool {
	e := &a.slots[entry]
	return cycle >= e.written && cycle < e.ready
}

// Stable reports whether entry is readable at cycle without a violation.
// This is what the avoidance mechanisms consult *instead of* reading.
func (a *Array) Stable(cycle int64, entry int) bool {
	a.checkEntry(entry)
	return !a.stabilizing(cycle, entry)
}

// ReadyAt returns the first cycle at which entry is readable.
func (a *Array) ReadyAt(entry int) int64 {
	a.checkEntry(entry)
	return a.slots[entry].ready
}

// Corrupted reports whether entry currently holds violation-scrambled data.
func (a *Array) Corrupted(entry int) bool {
	a.checkEntry(entry)
	return a.slots[entry].corrupt
}

// Peek returns entry's word without port accounting, violation semantics,
// or side effects (a test/debug observer).
func (a *Array) Peek(entry int) uint64 {
	a.checkEntry(entry)
	return a.slots[entry].word
}

// TotalBits returns the array's storage capacity in bits, used by the area
// and energy accounting.
func (a *Array) TotalBits() int { return a.cfg.Entries * 64 }
