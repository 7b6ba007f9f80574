// Package iq implements the instruction queue of the in-order core with the
// IRAW-avoidance issue gate of Section 4.2.
//
// The IQ is itself an SRAM block: allocating an instruction writes an
// entry, and the issue stage reads the ICI oldest entries every cycle
// whether or not they are valid. At low Vcc those writes are interrupted,
// so an entry must not be read for N cycles after allocation. Rather than
// tracking per-entry timers, the hardware gates issue on occupancy:
//
//	issue allowed  <=>  occupancy >= ICI + AI*N
//
// which guarantees the ICI oldest entries are stable even if the AI*N
// youngest are not (allocation is in order, at most AI per cycle). When the
// pipeline must drain, AI*N NOOPs are injected, AI per cycle, so real
// instructions can always issue.
package iq

import (
	"fmt"
	"slices"
)

// Entry is one queue slot. Payload is an opaque instruction handle owned by
// the pipeline (the core stores the instruction's trace index); AllocCycle
// records when the slot was written (used by the self-check that the
// occupancy gate subsumes per-entry stability).
type Entry struct {
	Payload    uint64
	NOOP       bool
	AllocCycle int64
}

// Config sizes the queue and its gate.
type Config struct {
	// Size is the number of IQ entries (32 in the modelled core).
	Size int
	// ICI is the number of oldest instructions considered for issue each
	// cycle (2 in the modelled core: "Intel Silverthorne considers the 2
	// oldest instructions").
	ICI int
	// AI is the allocation rate, instructions per cycle (2).
	AI int
}

// DefaultConfig matches the modelled core.
func DefaultConfig() Config { return Config{Size: 32, ICI: 2, AI: 2} }

// Queue is the instruction queue. Not goroutine-safe.
type Queue struct {
	cfg Config
	n   int // stabilization cycles; 0 disables the gate ("stall issue?" = 0)

	// head and tail are free-running counters; hardware keeps them modulo
	// 2*Size (one extra wrap bit, as in Figure 9, where a '1' is appended
	// to the tail before the subtraction).
	head, tail int64
	ring       []Entry

	// Stats
	GateStalls    uint64 // cycles issue was blocked only by the occupancy gate
	NOOPsInjected uint64
}

// Validate reports whether the configuration is structurally usable. New
// panics on the same conditions (an invariant backstop), so API boundaries
// that accept user-supplied configs — core.New — check here first and
// return the error instead.
func (cfg Config) Validate() error {
	if cfg.Size <= 0 || cfg.ICI <= 0 || cfg.AI <= 0 {
		return fmt.Errorf("iq: invalid config %+v", cfg)
	}
	if cfg.Size&(cfg.Size-1) != 0 {
		return fmt.Errorf("iq: size %d must be a power of two (ring pointer arithmetic)", cfg.Size)
	}
	return nil
}

// New returns an empty queue.
func New(cfg Config) *Queue {
	q := new(Queue)
	q.Reset(cfg)
	return q
}

// Reset returns the queue to the state New(cfg) builds: empty, gate off,
// counters cleared. The ring is cleared in place and reallocated only when
// too small.
func (q *Queue) Reset(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	*q = Queue{cfg: cfg, ring: slices.Grow(q.ring[:0], cfg.Size)[:cfg.Size]}
	clear(q.ring)
}

// Config returns the queue configuration.
func (q *Queue) Config() Config { return q.cfg }

// SetStabilizeCycles reconfigures N on a Vcc change. Only N and the
// stall-issue enable change; the threshold ICI + AI*N is recomputed here
// exactly as the Figure 9 logic would (N shifted left once for AI=2).
func (q *Queue) SetStabilizeCycles(n int) {
	if n < 0 {
		panic("iq: negative N")
	}
	q.n = n
}

// StabilizeCycles returns the configured N.
func (q *Queue) StabilizeCycles() int { return q.n }

// Occupancy returns the number of instructions in the queue.
func (q *Queue) Occupancy() int { return int(q.tail - q.head) }

// Free returns the number of empty slots.
func (q *Queue) Free() int { return q.cfg.Size - q.Occupancy() }

// threshold is ICI + AI*N.
func (q *Queue) threshold() int { return q.cfg.ICI + q.cfg.AI*q.n }

// Figure9Occupancy computes the occupancy using the hardware arithmetic of
// Figure 9: a '1' is appended to the left of the 5-bit tail (adding
// IQsize), the head is subtracted, and the uppermost bit of the result is
// discarded (modulo 2*IQsize). It must always agree with Occupancy; a test
// holds the two together.
func (q *Queue) Figure9Occupancy() int {
	size := q.cfg.Size
	tail := int(q.tail) & (size - 1)   // 5-bit tail
	head := int(q.head) & (2*size - 1) // head with wrap bit
	ext := tail | size                 // append '1' to the left: tail + IQsize
	diff := (ext - head) & (2*size - 1)
	return diff % size // discard the uppermost bit
}

// MayIssue reports whether the issue stage may consider instructions this
// cycle. With N = 0 the gate is disabled (the "stall issue?" signal of
// Figure 9 is held at 0) and only emptiness blocks.
func (q *Queue) MayIssue() bool {
	occ := q.Occupancy()
	if occ == 0 {
		return false
	}
	if q.n == 0 {
		return true
	}
	return occ >= q.threshold()
}

// GateBlocked reports whether issue is blocked *only* by the IRAW gate:
// there are instructions (so a baseline queue would issue) but fewer than
// the threshold. Callers use it for stall attribution.
func (q *Queue) GateBlocked() bool {
	occ := q.Occupancy()
	return occ > 0 && q.n > 0 && occ < q.threshold()
}

// NoteGateStall increments the gate-stall counter (called once per stalled
// cycle by the pipeline, which owns cycle accounting).
func (q *Queue) NoteGateStall() { q.GateStalls++ }

// Alloc appends an instruction allocated at the given cycle. It returns
// false when the queue is full.
func (q *Queue) Alloc(cycle int64, payload uint64) bool {
	if q.Free() == 0 {
		return false
	}
	q.ring[int(q.tail)&(q.cfg.Size-1)] = Entry{Payload: payload, AllocCycle: cycle}
	q.tail++
	return true
}

// InjectNOOPs appends up to AI NOOP entries (the drain mechanism: "whenever
// the pipeline must empty, AI*N NOOP instructions are injected in the IQ to
// ensure all instructions are issued"). The NOOPs are IQ writes like any
// allocation, so at most AI go in per cycle: the gate's threshold assumes
// the AI*N youngest entries span the last N cycles, and a burst of AI*N in
// one cycle would open it over entries still stabilizing. A pipeline that
// stays gate-blocked calls again each cycle until AI*N are in. Injection is
// best-effort up to the free space, which suffices since draining implies
// allocation has stopped.
func (q *Queue) InjectNOOPs(cycle int64) int {
	n := min(q.cfg.AI, q.cfg.AI*q.n)
	injected := 0
	for i := 0; i < n && q.Free() > 0; i++ {
		q.ring[int(q.tail)&(q.cfg.Size-1)] = Entry{NOOP: true, AllocCycle: cycle}
		q.tail++
		injected++
	}
	q.NOOPsInjected += uint64(injected)
	return injected
}

// Oldest returns the k-th oldest entry (k = 0 is the head) without
// consuming it, or nil if fewer than k+1 entries exist or k >= ICI (the
// hardware only reads the ICI oldest slots).
func (q *Queue) Oldest(k int) *Entry {
	if k < 0 || k >= q.cfg.ICI || k >= q.Occupancy() {
		return nil
	}
	return &q.ring[int(q.head+int64(k))&(q.cfg.Size-1)]
}

// PopOldest consumes the head entry. It panics if the queue is empty
// (callers must check Oldest first — popping blind is a pipeline bug).
func (q *Queue) PopOldest() Entry {
	if q.Occupancy() == 0 {
		panic("iq: PopOldest on empty queue")
	}
	e := q.ring[int(q.head)&(q.cfg.Size-1)]
	q.head++
	return e
}

// EntriesStable verifies that the ICI oldest entries were allocated at
// least N+1 cycles before `cycle` — i.e. their SRAM writes have stabilized.
// The occupancy gate is supposed to make this always true when MayIssue
// returns true; the core's reference engine asserts it on every issue and
// a property test exercises it directly.
func (q *Queue) EntriesStable(cycle int64) bool {
	k := q.cfg.ICI
	if occ := q.Occupancy(); occ < k {
		k = occ
	}
	for i := 0; i < k; i++ {
		e := &q.ring[int(q.head+int64(i))&(q.cfg.Size-1)]
		if cycle < e.AllocCycle+1+int64(q.n) {
			return false
		}
	}
	return true
}

// Flush empties the queue (branch misprediction or exception).
func (q *Queue) Flush() {
	q.head = q.tail
}
