// Package scoreboard implements the readiness-control logic of the in-order
// issue stage (Section 4.1): one shift register per logical register, with
// the IRAW-avoidance extension that inserts a stabilization bubble between
// the bypass window and register-file readability.
//
// A producer of latency L issued with B-bit registers sets, from the most
// significant bit: L zeros, then (IRAW mode) `bypass` ones, N zeros, and
// ones to fill — e.g. 0001011 for L=3, bypass=1, N=1 (Figure 8). Registers
// shift left one position per cycle, replicating the least significant bit.
// A consumer may issue only while the MSB of each source's register is 1:
// exactly the cycles in which the value is reachable through the bypass
// network or, later, readable from stabilized bitcells — never the cycles
// in which the RF entry is still stabilizing.
//
// The scoreboard tracks two views per register:
//
//   - the read view (IRAW-extended pattern) gating consumers, and
//   - the write view (baseline pattern, no bubble) gating writers (WAW);
//     overwriting a stabilizing entry is safe (Section 4.4), so writers do
//     not wait out the bubble.
//
// # Representation
//
// The hardware shifts every register each cycle; simulating that literally
// costs O(registers) per cycle even when the pipeline is stalled. The
// pattern a producer installs is fully determined by its latency, the
// bypass depth and N, so each register instead stores the cycle boundaries
// the shifting register would cross, in absolute scoreboard time:
//
//   - writeAt, the cycle the value becomes available (the write view turns
//     ready);
//   - readAt, the first cycle the read view is ready;
//   - the stabilization bubble [bubbleFrom, bubbleTo), in which the read
//     view is not ready again (empty when there is no bubble);
//   - longPending, for producers completed by an event.
//
// Every readiness query is then two or three integer compares against
// Now, Shift (or the bulk AdvanceTo) only advances a clock, and NextChange
// is the smallest boundary after Now. The Pattern/Figure 8 semantics —
// including the stabilization bubble — remain the observable contract:
// ReadView reconstructs the exact register value the shifting hardware
// would hold from the boundaries (bit Bits-1-j is read readiness at Now+j),
// and the Figure 8 tests hold it to Pattern.
package scoreboard

import (
	"fmt"
	"math"
	"slices"

	"lowvcc/internal/isa"
)

// Config sizes the scoreboard.
type Config struct {
	// Regs is the number of logical registers tracked.
	Regs int
	// Bits is the shift-register width B. Producers of latency up to
	// B-1-bypass-maxN use the in-register path; longer ones use the
	// long-latency event path (Section 4.1.1).
	Bits int
	// BypassLevels is the depth of the bypass network (ones inserted after
	// the latency zeros in IRAW mode).
	BypassLevels int
}

// DefaultConfig matches the modelled Silverthorne-like core: 16 logical
// registers, 12-bit shift registers, one bypass level.
func DefaultConfig() Config {
	return Config{Regs: isa.NumRegs, Bits: 12, BypassLevels: 1}
}

// regState is one register's shift-register pair as absolute-time
// boundaries (see the package documentation). The zero value is a register
// that has been ready since time 0; a long-pending register is never ready
// on its own (writeAt = readAt = MaxInt64).
type regState struct {
	writeAt int64 // write view ready from here on (value available)
	readAt  int64 // read view ready from here on, bubble aside
	// bubbleFrom and bubbleTo bound the stabilization bubble [from, to):
	// the cycles after the bypass window in which the RF entry is still
	// stabilizing. Equal when there is no bubble.
	bubbleFrom, bubbleTo int64
	// longPending marks a register whose producer's completion will be
	// signalled by an event (load miss, divider) rather than the register.
	longPending bool
}

// Scoreboard is the per-register readiness tracker. Not goroutine-safe.
type Scoreboard struct {
	cfg Config
	n   int   // current stabilization cycles (0 = IRAW avoidance off)
	now int64 // scoreboard time: total shifts since New

	regs []regState

	// ExtraBits is the per-register storage added by the IRAW extension
	// (bypass + max bubble), for the area/energy accounting.
	ExtraBits int
}

// Validate reports whether the configuration is structurally usable. New
// panics on the same conditions (an invariant backstop), so API boundaries
// that accept user-supplied configs — core.New — check here first and
// return the error instead.
func (cfg Config) Validate() error {
	if cfg.Regs <= 0 || cfg.Bits <= 1 || cfg.Bits > 31 || cfg.BypassLevels < 0 || cfg.MaxN() < 0 {
		return fmt.Errorf("scoreboard: invalid config %+v", cfg)
	}
	return nil
}

// New returns a scoreboard with every register ready.
func New(cfg Config) *Scoreboard {
	sb := new(Scoreboard)
	sb.Reset(cfg)
	return sb
}

// Reset returns the scoreboard to the state New(cfg) builds: every register
// ready, time zero, IRAW avoidance off. The register states are cleared in
// place and reallocated only when too few.
func (sb *Scoreboard) Reset(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	*sb = Scoreboard{
		cfg:       cfg,
		regs:      slices.Grow(sb.regs[:0], cfg.Regs)[:cfg.Regs],
		ExtraBits: cfg.BypassLevels + 1, // bubble sized for N up to MaxN=1 per level change
	}
	clear(sb.regs)
}

// Config returns the scoreboard configuration.
func (sb *Scoreboard) Config() Config { return sb.cfg }

// SetStabilizeCycles reconfigures the stabilization bubble N for the
// current Vcc level (Section 4.1.3). N = 0 disables IRAW avoidance: the
// shift registers are then initialized exactly as in the baseline.
func (sb *Scoreboard) SetStabilizeCycles(n int) {
	if n < 0 || n > sb.MaxN() {
		panic(fmt.Sprintf("scoreboard: N=%d out of range [0,%d]", n, sb.MaxN()))
	}
	sb.n = n
}

// StabilizeCycles returns the configured bubble width N.
func (sb *Scoreboard) StabilizeCycles() int { return sb.n }

// MaxN is the largest bubble the register width can accommodate alongside a
// single-cycle producer and the bypass window.
func (sb *Scoreboard) MaxN() int { return sb.cfg.MaxN() }

// MaxN is the largest bubble a scoreboard of this configuration holds.
func (cfg Config) MaxN() int { return cfg.Bits - 1 - cfg.BypassLevels - 1 }

// MaxShortLatency is the largest producer latency the shift register can
// express with the current bubble; longer producers must use the
// long-latency path.
func (sb *Scoreboard) MaxShortLatency() int {
	if sb.n == 0 {
		return sb.cfg.Bits - 1
	}
	return sb.cfg.Bits - 1 - sb.cfg.BypassLevels - sb.n
}

func (sb *Scoreboard) checkLatency(latency int) {
	if latency < 1 || latency > sb.MaxShortLatency() {
		panic(fmt.Sprintf("scoreboard: latency %d outside short range [1,%d]", latency, sb.MaxShortLatency()))
	}
}

// Pattern returns the initialization value for a producer of the given
// latency under the current mode, MSB at bit Bits-1, built from the
// Figure 8 recipe. Exposed for tests and the documentation tooling; the
// scoreboard itself stores the boundaries the pattern implies.
func (sb *Scoreboard) Pattern(latency int) uint32 {
	sb.checkLatency(latency)
	bits := make([]byte, 0, sb.cfg.Bits)
	for i := 0; i < latency; i++ {
		bits = append(bits, 0) // (I) producer execution
	}
	if sb.n > 0 {
		for i := 0; i < sb.cfg.BypassLevels; i++ {
			bits = append(bits, 1) // (II) bypass window
		}
		for i := 0; i < sb.n; i++ {
			bits = append(bits, 0) // (III) stabilization bubble
		}
	}
	for len(bits) < sb.cfg.Bits {
		bits = append(bits, 1) // (IV) ready thereafter
	}
	var v uint32
	for _, b := range bits { // bits[0] is the MSB
		v = v<<1 | uint32(b)
	}
	return v
}

// Shift advances every register by one cycle: shift left, replicate LSB.
// Call once at each cycle boundary before issue decisions. With the
// boundary representation this is a clock tick — views are derived on read.
func (sb *Scoreboard) Shift() { sb.now++ }

// AdvanceTo moves the scoreboard clock directly to time t (equivalent to
// t - Now() consecutive Shifts), the bulk path the event-driven pipeline
// uses when it skips idle cycles. Time never moves backwards.
func (sb *Scoreboard) AdvanceTo(t int64) {
	if t > sb.now {
		sb.now = t
	}
}

// Now returns the scoreboard time (total shifts since New).
func (sb *Scoreboard) Now() int64 { return sb.now }

// readyAt reports the read view's MSB at time t: ready from readAt on,
// except inside the bubble.
func (e *regState) readyAt(t int64) bool {
	return t >= e.readAt && (t < e.bubbleFrom || t >= e.bubbleTo)
}

func (sb *Scoreboard) check(r isa.Reg) {
	if int(r) >= sb.cfg.Regs {
		panic(fmt.Sprintf("scoreboard: register %v out of range", r))
	}
}

// ReadReady reports whether a consumer of r may issue this cycle: the MSB
// of the IRAW-extended register is set and no long-latency producer is
// outstanding. Registers never written are always ready.
func (sb *Scoreboard) ReadReady(r isa.Reg) bool {
	if r == isa.RegNone {
		return true
	}
	return sb.regs[r].readyAt(sb.now) // implicit bounds check stands in for check(r)
}

// WriteReady reports whether a new producer of r may issue this cycle
// without a WAW hazard: the previous value is available (baseline view) and
// no long-latency producer is outstanding. The stabilization bubble does
// not block writers — overwriting a stabilizing entry is safe.
func (sb *Scoreboard) WriteReady(r isa.Reg) bool {
	if r == isa.RegNone {
		return true
	}
	return sb.now >= sb.regs[r].writeAt // implicit bounds check stands in for check(r)
}

// IssueReady reports whether an instruction reading s1 and s2 and writing d
// may issue this cycle as far as the scoreboard is concerned: exactly
// ReadReady(s1) && ReadReady(s2) && WriteReady(d). It is the issue stage's
// common-case check; the per-register walk that attributes a stall runs
// only when it fails.
func (sb *Scoreboard) IssueReady(s1, s2, d isa.Reg) bool {
	return sb.ReadReady(s1) && sb.ReadReady(s2) && sb.WriteReady(d)
}

// IRAWBlocked reports whether a consumer of r is blocked *only* by the
// stabilization bubble: the value is available (a baseline machine would
// issue) but the RF entry is still stabilizing. This distinguishes the
// paper's "13.2% of instructions delayed" statistic from ordinary RAW
// stalls.
func (sb *Scoreboard) IRAWBlocked(r isa.Reg) bool {
	if r == isa.RegNone {
		return false
	}
	e := &sb.regs[r] // implicit bounds check stands in for check(r)
	return sb.now >= e.writeAt && !e.readyAt(sb.now)
}

// NextChange returns the earliest scoreboard time after Now at which r's
// readiness (either view's MSB) can change on its own — i.e. by shifting
// alone, with no new producer and no long-latency completion. It returns
// math.MaxInt64 when no such self-change exists: the register is
// long-pending (only an event can change it) or both views have gone
// steady-state. The event-driven pipeline uses this to bound idle-cycle
// skips; readiness is NOT monotone (the bubble un-readies a register after
// its bypass window), so the next change is a flip in either direction.
func (sb *Scoreboard) NextChange(r isa.Reg) int64 {
	if r == isa.RegNone {
		return math.MaxInt64
	}
	sb.check(r)
	e := &sb.regs[r]
	next := int64(math.MaxInt64)
	for _, t := range [4]int64{e.writeAt, e.readAt, e.bubbleFrom, e.bubbleTo} {
		if t > sb.now && t < next {
			next = t
		}
	}
	return next
}

// IssueProducer records that a producer of r with the given execution
// latency issued this cycle. Latency must be in the short range; use
// BeginLongLatency otherwise.
func (sb *Scoreboard) IssueProducer(r isa.Reg, latency int) {
	sb.check(r)
	sb.checkLatency(latency)
	sb.arm(r, latency)
}

// arm installs the boundaries of Pattern(latency) set this cycle: L zeros,
// then (IRAW mode) `bypass` ones, N zeros and ones thereafter in the read
// view; L zeros then ones in the write view.
func (sb *Scoreboard) arm(r isa.Reg, latency int) {
	avail := sb.now + int64(latency)
	e := regState{writeAt: avail, readAt: avail}
	if n := int64(sb.n); n > 0 {
		if b := int64(sb.cfg.BypassLevels); b > 0 {
			e.bubbleFrom, e.bubbleTo = avail+b, avail+b+n
		} else {
			e.readAt = avail + n // no bypass window: the bubble follows the zeros
		}
	}
	sb.regs[r] = e
}

// BeginLongLatency records a producer whose completion time is unknown or
// too large for the shift register (load miss, divider). The register stays
// not-ready until CompleteLongLatency.
func (sb *Scoreboard) BeginLongLatency(r isa.Reg) {
	sb.check(r)
	sb.regs[r] = regState{writeAt: math.MaxInt64, readAt: math.MaxInt64, longPending: true}
}

// CompleteLongLatency signals that the long-latency value of r will be
// available in `remaining` cycles (>= 1), re-arming the shift register as
// if a short producer of that latency issued this cycle (Section 4.1.1:
// "the shift register is updated ... when the value is expected to be
// available in less than B cycles").
func (sb *Scoreboard) CompleteLongLatency(r isa.Reg, remaining int) {
	sb.check(r)
	if !sb.regs[r].longPending {
		panic(fmt.Sprintf("scoreboard: CompleteLongLatency(%v) without pending producer", r))
	}
	if remaining < 1 {
		remaining = 1
	}
	if remaining > sb.MaxShortLatency() {
		panic(fmt.Sprintf("scoreboard: remaining %d exceeds short range %d", remaining, sb.MaxShortLatency()))
	}
	sb.arm(r, remaining)
}

// LongPending reports whether r awaits a long-latency completion.
func (sb *Scoreboard) LongPending(r isa.Reg) bool {
	if r == isa.RegNone {
		return false
	}
	return sb.regs[r].longPending // implicit bounds check stands in for check(r)
}

// Flush resets every register to ready (pipeline flush: the in-flight
// producers that set these bits were squashed or will be reinjected).
func (sb *Scoreboard) Flush() { clear(sb.regs) }

// ReadView returns the raw read-view register of r (for tests and
// tracing), reconstructed from its boundaries: bit Bits-1-j holds the
// read view's readiness at Now+j, which is exactly the value the shifting
// hardware holds (its LSB replication continues the steady state).
func (sb *Scoreboard) ReadView(r isa.Reg) uint32 {
	sb.check(r)
	e := &sb.regs[r]
	var v uint32
	for j := 0; j < sb.cfg.Bits; j++ {
		v <<= 1
		if e.readyAt(sb.now + int64(j)) {
			v |= 1
		}
	}
	return v
}
