// Package predictor implements the prediction-only SRAM blocks of the core:
// the branch predictor (BP) and the return stack buffer (RSB), with the
// Section 4.5 IRAW policy — violations are *ignored* because a wrong
// prediction affects performance, never correctness.
//
// The package still tracks every would-be violation: reads of BP counters
// inside their stabilization window whose update flipped the counter's
// uppermost bit ("only those entries whose uppermost bit is flipped could
// be corrupted"), and returns that pop an RSB entry pushed within the
// window. The paper reports a negligible 0.0017% potential extra
// misprediction rate and no short call→return conflicts; the reproduction
// measures both. A deterministic mode (for post-silicon test comparability)
// stalls returns instead, as Section 4.5 suggests.
package predictor

import (
	"fmt"
	"slices"
)

// Config sizes the predictor.
type Config struct {
	// BPEntries is the number of 2-bit counters (power of two).
	BPEntries int
	// HistoryBits > 0 selects gshare indexing with that many global-history
	// bits; 0 selects bimodal (PC-only) indexing.
	HistoryBits int
	// RSBEntries is the return-stack depth.
	RSBEntries int
	// Deterministic selects the testability variant: returns stall until
	// the top RSB entry stabilizes rather than risking a corrupt target.
	Deterministic bool
}

// DefaultConfig matches the modelled core: 4K-counter bimodal BP, 8-entry RSB.
func DefaultConfig() Config {
	return Config{BPEntries: 4096, HistoryBits: 0, RSBEntries: 8}
}

// Stats counts predictor activity.
type Stats struct {
	Predictions uint64
	Mispredicts uint64
	// PotentialCorruptions counts BP counter reads inside a stabilization
	// window whose pending update flipped the counter MSB — the paper's
	// "potential extra misprediction" events.
	PotentialCorruptions uint64
	ReturnPredictions    uint64
	ReturnMispredicts    uint64
	// RSBConflicts counts returns that popped a still-stabilizing entry
	// (call and return fewer than N+1 cycles apart).
	RSBConflicts uint64
	// RSBStallCycles counts cycles spent waiting in deterministic mode.
	RSBStallCycles uint64
}

// Predictor is the BP+RSB block. Not goroutine-safe.
type Predictor struct {
	cfg Config
	n   int // stabilization cycles; 0 = IRAW machinery off

	counters []uint8 // 2-bit saturating: 0,1 not-taken; 2,3 taken
	// updatedAt and msbFlipped track each counter's last write for the
	// violation accounting (the hardware needs nothing: violations are
	// simply tolerated).
	updatedAt  []int64
	msbFlipped []bool
	history    uint32

	rsb       []uint64
	rsbPushed []int64
	top       int // index of next push slot

	stats Stats
}

// Validate reports whether the configuration is structurally usable. New
// panics on the same conditions (an invariant backstop), so API boundaries
// that accept user-supplied configs — core.New — check here first and
// return the error instead.
func (cfg Config) Validate() error {
	if cfg.BPEntries <= 0 || cfg.BPEntries&(cfg.BPEntries-1) != 0 {
		return fmt.Errorf("predictor: BPEntries %d must be a positive power of two", cfg.BPEntries)
	}
	if cfg.RSBEntries <= 0 {
		return fmt.Errorf("predictor: RSBEntries must be positive")
	}
	if cfg.HistoryBits < 0 || cfg.HistoryBits > 20 {
		return fmt.Errorf("predictor: HistoryBits %d out of range", cfg.HistoryBits)
	}
	return nil
}

// New returns a predictor with weakly-not-taken counters and an empty RSB.
func New(cfg Config) *Predictor {
	p := new(Predictor)
	p.Reset(cfg)
	return p
}

// Reset returns the predictor to the state New(cfg) builds: weakly-not-taken
// counters with no update in flight, empty history and RSB, IRAW off,
// counters cleared. The tables are rewritten in place and reallocated only
// when too small.
func (p *Predictor) Reset(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	*p = Predictor{
		cfg:        cfg,
		counters:   fill(p.counters, cfg.BPEntries, 1), // weakly not-taken
		updatedAt:  fill(p.updatedAt, cfg.BPEntries, -1),
		msbFlipped: fill(p.msbFlipped, cfg.BPEntries, false),
		rsb:        fill(p.rsb, cfg.RSBEntries, 0),
		rsbPushed:  fill(p.rsbPushed, cfg.RSBEntries, -1),
	}
}

// fill returns s resized to n elements, each v, reusing its backing array
// when it is large enough.
func fill[T any](s []T, n int, v T) []T {
	s = slices.Grow(s[:0], n)[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// Config returns the predictor configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Stats returns a snapshot of the counters.
func (p *Predictor) Stats() Stats { return p.stats }

// ResetStats zeroes the counters.
func (p *Predictor) ResetStats() { p.stats = Stats{} }

// SetStabilizeCycles reconfigures N on a Vcc change (0 disables the
// violation window entirely).
func (p *Predictor) SetStabilizeCycles(n int) {
	if n < 0 {
		panic("predictor: negative N")
	}
	p.n = n
}

func (p *Predictor) index(pc uint64) int {
	idx := uint32(pc >> 2)
	if p.cfg.HistoryBits > 0 {
		idx ^= p.history & (1<<p.cfg.HistoryBits - 1)
	}
	return int(idx) & (p.cfg.BPEntries - 1)
}

// inWindow reports whether a write at w is still stabilizing at cycle c.
func (p *Predictor) inWindow(c, w int64) bool {
	return p.n > 0 && w >= 0 && c > w && c <= w+int64(p.n)
}

// PredictBranch returns the predicted direction for the branch at pc,
// read at the given cycle. If the indexed counter is mid-stabilization and
// its pending update flipped the MSB, the read is a potential corruption:
// the model returns the *pre-update* direction (the cell has not finished
// flipping) and counts the event.
func (p *Predictor) PredictBranch(cycle int64, pc uint64) bool {
	p.stats.Predictions++
	i := p.index(pc)
	taken := p.counters[i] >= 2
	if p.inWindow(cycle, p.updatedAt[i]) && p.msbFlipped[i] {
		p.stats.PotentialCorruptions++
		taken = !taken // the settled-so-far cell still shows the old MSB
	}
	return taken
}

// UpdateBranch records the resolved direction of the branch at pc,
// updating the counter (an SRAM write that stabilizes over N cycles) and
// the global history. `mispredicted` feeds the statistics.
func (p *Predictor) UpdateBranch(cycle int64, pc uint64, taken, mispredicted bool) {
	if mispredicted {
		p.stats.Mispredicts++
	}
	i := p.index(pc)
	old := p.counters[i]
	c := old
	if taken {
		if c < 3 {
			c++
		}
	} else {
		if c > 0 {
			c--
		}
	}
	if c != old {
		p.counters[i] = c
		p.updatedAt[i] = cycle
		p.msbFlipped[i] = (old >= 2) != (c >= 2)
	}
	p.history = p.history<<1 | b2u(taken)
}

// PushCall records a call's return address at the given cycle (an RSB
// write, stabilizing over N cycles).
func (p *Predictor) PushCall(cycle int64, retPC uint64) {
	p.rsb[p.top] = retPC
	p.rsbPushed[p.top] = cycle
	p.top = (p.top + 1) % p.cfg.RSBEntries
}

// PredictReturn pops the RSB and returns the predicted target. If the
// popped entry is still stabilizing, the outcome depends on the mode:
// deterministic mode reports the stall cycles needed before the entry may
// be read; otherwise the event is counted as an RSB conflict and the
// returned target is corrupted (guaranteed mispredict).
func (p *Predictor) PredictReturn(cycle int64) (target uint64, stallCycles int, conflict bool) {
	p.stats.ReturnPredictions++
	p.top = (p.top + p.cfg.RSBEntries - 1) % p.cfg.RSBEntries
	pushed := p.rsbPushed[p.top]
	target = p.rsb[p.top]
	if p.inWindow(cycle, pushed) {
		if p.cfg.Deterministic {
			stall := pushed + int64(p.n) - cycle + 1
			p.stats.RSBStallCycles += uint64(stall)
			return target, int(stall), false
		}
		p.stats.RSBConflicts++
		return target ^ 0x4, 0, true // corrupted prediction
	}
	return target, 0, false
}

// NoteReturnMispredict feeds the return-misprediction statistic.
func (p *Predictor) NoteReturnMispredict() { p.stats.ReturnMispredicts++ }

// Functional warm-up replay. WarmBranch, WarmCall and WarmReturn train the
// predictor over a sample window's warm-up prefix under the same
// timing-independent contract as the cache hierarchy's warm path: the
// counters, global history and RSB contents evolve exactly as a timed run
// over the same instruction sequence would evolve them (direction training
// depends only on resolved outcomes, never on timing), every write is
// recorded as settled (no stabilization stamp, so no violation window can
// reach into the measured span), and no statistics move.

// WarmBranch trains the branch at pc with its resolved direction.
func (p *Predictor) WarmBranch(pc uint64, taken bool) {
	i := p.index(pc)
	old := p.counters[i]
	c := old
	if taken {
		if c < 3 {
			c++
		}
	} else {
		if c > 0 {
			c--
		}
	}
	if c != old {
		p.counters[i] = c
		p.updatedAt[i] = -1 // settled: the warm write cannot be mid-stabilization
		p.msbFlipped[i] = false
	}
	p.history = p.history<<1 | b2u(taken)
}

// WarmCall pushes a call's return address as a settled RSB entry.
func (p *Predictor) WarmCall(retPC uint64) {
	p.rsb[p.top] = retPC
	p.rsbPushed[p.top] = -1
	p.top = (p.top + 1) % p.cfg.RSBEntries
}

// WarmReturn pops the RSB (keeping the stack aligned with the replayed
// call/return stream) without prediction, conflict or stall accounting.
func (p *Predictor) WarmReturn() {
	p.top = (p.top + p.cfg.RSBEntries - 1) % p.cfg.RSBEntries
}

// Flush clears speculative history state after a pipeline flush. Counters
// and the RSB survive (as in hardware), only the in-flight history is
// squashed; the RSB top is left as-is since the modelled core resolves
// calls/returns at issue.
func (p *Predictor) Flush() {}

// CounterBits returns the BP storage in bits (for area accounting).
func (p *Predictor) CounterBits() int { return 2 * p.cfg.BPEntries }

// RSBBits returns the RSB storage in bits.
func (p *Predictor) RSBBits() int { return 64 * p.cfg.RSBEntries }

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
