// Package core assembles the paper's contribution: a Silverthorne-like
// two-wide in-order pipeline whose SRAM blocks (RF, IQ, IL0, DL0, UL1,
// TLBs, WCB/EB, FB, BP, RSB) run at logic speed at low Vcc by interrupting
// writes early and avoiding immediate reads after writes, per-structure as
// described in Sections 3 and 4.
//
// A Core is built for one (voltage, mode) operating point, runs traces, and
// reports cycle counts, stall attribution, violation counters and the
// activity census for the energy model. The DVFS reconfiguration of
// Section 4.1.3/4.2/4.4 is exercised via Reconfigure.
//
// # The event-driven engine
//
// Run models a strictly cycle-stepped pipeline but executes event-driven;
// its Results are bit-identical to stepping every cycle (held together by
// a recorded-golden test and an equivalence fuzz against the reference
// engine, Config.DisableFastPaths, which steps every cycle over the cache
// blocks' reference scans). Three mechanisms carry the loop:
//
//   - Timing wheel (wheel.go). Deferred events — long-latency completion
//     heads-ups and pipelined register-file writes — live in a 64-bucket
//     wheel indexed by due-cycle mod 64, replacing the seed engine's
//     per-cycle linear scan over all pending events. Dispatch touches only
//     the current bucket; far-future events wait in place across laps.
//
//   - Interval scoreboard (internal/scoreboard). Registers store the
//     absolute cycles at which their shift register's MSB would flip
//     (value available, bypass window end, bubble end) instead of
//     physically shifting every cycle; a ready check is two or three
//     compares against the clock, and AdvanceTo moves time in one jump.
//     NextChange exposes the next self-inflicted readiness flip — the
//     event-driven loop's bound for how far it may skip while an
//     instruction waits on a register.
//
//   - Idle-cycle skipping. When a cycle ends with nothing issued,
//     allocated, fetched or injected, the pipeline state is frozen until
//     an external time arrives: the next wheel event, the fetch-stall
//     expiry, the front of the fetch buffer maturing, a scoreboard flip or
//     a port-hold release for the blocked head instruction (issueRetryAt
//     mirrors tryIssue's exact check order to find it). The loop jumps
//     there directly. Attribution is preserved because the jump target is
//     the minimum over every time at which the stall reason could change,
//     so the skipped cycles are credited to the same IssueHist/IssueStalls
//     /FetchHist counters the stepped loop would have recorded, in the
//     same amounts. Cycles whose stall charges per-cycle side effects
//     (the IQ occupancy gate, Extra-Bypass write-port contention) are
//     never skipped.
//
// The IQ needs no "next event" hook (its gate depends only on occupancy,
// which only pipeline actions change), and neither does the predictor (its
// RSB stalls are already routed through the fetch-stall time); the caches
// expose NextFree for the port-hold windows the issue stage polls.
//
// # Functional warm-up replay
//
// One sample window of a sharded long trace is a warm-up prefix that is
// never measured, then the measured span (RunWarmed). The prefix is
// replayed through WarmReplay under the hierarchy's
// timing-independent access-order contract (see internal/cache): one
// instruction-fetch touch per 64-byte line transition, one data touch per
// load or store, one predictor update per control instruction, all
// timing-free. The invariants that make the handoff sound:
//
//   - warm state is a pure function of the instruction sequence —
//     independent of clock plan, Vcc, IRAW mode and the cycle the replay
//     runs at (equivalence-tested across operating points);
//   - every warm write lands settled: no stabilization window, port hold,
//     in-flight fill or STable entry reaches into the measured span, and
//     the predictor's warm writes carry no stabilization stamp;
//   - nothing timing-visible moves: no cycles elapse, no statistics
//     change, and the timed engine takes over at the next cycle with the
//     pipeline cold (the same few-cycle ramp any trace head pays);
//   - WarmReplay(tr, 0) is a no-op and RunWarmed(tr, 0) is exactly Run(tr),
//     so warm=0 windows stay bit-identical to the unsharded engine.
//
// The replay trains predictor direction state exactly (training depends
// only on resolved outcomes, never on timing) and cache/TLB/LRU/dirty
// state in access order; what it cannot reproduce is timing-dependent
// interleaving (MSHR merges, fill-completion ordering), which is the low
// single-digit residual the sharding-bias golden test bounds.
//
// # Warm-state checkpoints
//
// Because warm state is a pure function of the instruction sequence, it can
// be captured once and restored instead of replayed: CaptureWarm serializes
// a never-run core's functional warm state (cache/TLB arrays, predictor
// tables) into an immutable WarmState, and RestoreWarm loads one into a
// freshly reset core in O(state size) — turning an O(prefix length) window
// start into a near-constant one. The contract the checkpoint layer relies
// on:
//
//   - capture requires c.now == 0 and refuses any timed residue (elapsed
//     cycles, holds, in-flight fills, stabilization stamps), so a snapshot
//     can only ever hold access-order state;
//   - snapshots are canonical (LRU ticks renumbered by rank, derived
//     summaries recomputed on restore), so the same prefix produces
//     byte-identical snapshots however its replay was segmented;
//   - snapshots are Vcc- and mode-independent — one snapshot per (trace,
//     warm-relevant config, boundary) serves every operating point of a
//     sweep, shared read-only across cores and workers;
//   - fault maps are not serialized: reset reinstalls them
//     deterministically from (Seed, FaultySigma), so they key the snapshot,
//     and RestoreWarm rejects a snapshot whose valid entries collide with a
//     disabled line;
//   - restore + WarmReplayRange of the residual tail + RunWarmed yields
//     Results bit-identical to a continuous WarmReplay + RunWarmed
//     (fuzz-tested by internal/ckpt and internal/sim).
//
// internal/ckpt builds the content-addressed store on these primitives;
// internal/sim routes sharded windows through it by default.
//
// # What the engine reads of a Config
//
// Seven Config fields reach the timed engine only through the clock plan:
// Vcc, Mode, Circuit, MemLatencyTime, ForcedN, DisableAvoidance and
// CombineFaultyBits. From the plan the engine takes the memory side's
// cache.TimingMode (IRAW active, N, avoidance, off-chip latency in
// cycles), which also sets the scoreboard, IQ, register-file and
// predictor stabilization, and the write-pipeline depth. FaultySigma and
// Seed matter only when fault maps install (Faulty Bits, or IRAW with
// CombineFaultyBits). Every other field is read as is. One function,
// deriveTiming, computes the plan and this derivation; a core applies it
// at reset and Reconfigure.
//
// EngineKey exposes the same derivation without building a core (on a
// 2-CPU x86 host a key took about 1 µs and 144 B, core.New about 125 µs
// and 700 KB): an EngineInput holding the Config with the plan-only fields
// cleared plus the derived timing, and the clock plan. The contract: two
// configurations with equal EngineInputs simulate identical cycles on any
// trace, and their Results differ only in Plan and Time, so
// a.Replan(planB) equals b's Result byte for byte. IRAW at 600 mV and
// above deactivates and is timed exactly as baseline; internal/sim uses
// this to simulate each (engine input, trace) once per stream.
// DisableFastPaths stays in the key, so a reference engine never stands
// in for a fast one. TestEngineKeyCoversConfig fails on any new Config
// field until it is classified, and FuzzEngineKey checks the contract.
//
// # In-flight instructions and issue width
//
// The IQ payload of an in-flight instruction (fetched but not yet issued)
// is its index in the running trace: the issue stage reads opcode,
// operands, address, PC and branch outcome straight from the immutable
// *trace.Inst. The only per-instruction state the pipeline adds — the
// fetch-time misprediction verdict and the delayed-census flag — lives in
// a small ring indexed by trace index (see flagRing in core.go). Issue
// is one path: each cycle walks the IQ head, oldest first, up to Width
// instructions, checking each one's sources and destination against the
// scoreboard in the same order that derives its stall attribution.
//
// Config.Width is a real 1..MaxWidth axis: it sizes the fetch group, the
// fetch buffer (8 entries per width step) and the per-cycle issue bound.
// Width must not exceed IQ.ICI (the hardware reads only the ICI oldest
// IQ slots); DefaultConfigWidth widens the IQ defaults alongside the
// width so any 1..MaxWidth point is one call away. The IssueHist and
// FetchHist histogram shapes are unchanged: cycles that move more than
// two instructions fold into bucket 2 (the histograms' role — the
// issue-0/issue-some split for stall accounting — does not need wider
// buckets, and recorded goldens stay comparable). Warm state is
// width-independent (the functional replay never consults Width), so
// warm-state checkpoints are shared across a width sweep's points.
package core

import (
	"fmt"

	"lowvcc/internal/cache"
	"lowvcc/internal/circuit"
	"lowvcc/internal/iq"
	"lowvcc/internal/isa"
	"lowvcc/internal/predictor"
	"lowvcc/internal/scoreboard"
)

// EngineVersion identifies the simulation semantics for result caching:
// any change that can alter a simulated Result for the same (config,
// trace) input — timing model, stall attribution, stat definitions — must
// bump it. internal/journal keys cached cell results by it, so a bump
// invalidates every previously journaled entry at once instead of
// replaying stale numbers.
const EngineVersion = "lowvcc-engine-9"

// Config describes one simulated operating point.
type Config struct {
	// Vcc is the supply level; Mode selects the design (baseline, IRAW,
	// faulty bits, extra bypass).
	Vcc  circuit.Millivolts
	Mode circuit.Mode

	// Width is the fetch/issue width, in [1, MaxWidth] (2 for the
	// modelled core). It must not exceed IQ.ICI — the issue stage reads
	// only the ICI oldest IQ slots; DefaultConfigWidth keeps the two in
	// step.
	Width int

	Scoreboard scoreboard.Config
	IQ         iq.Config
	Hierarchy  cache.HierarchyConfig
	Predictor  predictor.Config

	// Circuit overrides the delay-model calibration (nil = default).
	Circuit *circuit.Params

	// MemLatencyTime is the off-chip latency in time units (one clock
	// phase at 700 mV = 1.0); it is constant across voltage, reproducing
	// Section 5.2's effect (i).
	MemLatencyTime float64

	// MispredictPenalty is the fetch-redirect bubble in cycles.
	MispredictPenalty int

	// FrontDepth is the fetch-to-allocate depth in cycles.
	FrontDepth int

	// ForcedN overrides the stabilization cycle count when positive
	// (the N-sweep ablation).
	ForcedN int

	// DisableAvoidance turns off every avoidance mechanism while keeping
	// interrupted writes: the unsafe validation mode, in which the sram
	// substrate must report violations.
	DisableAvoidance bool

	// FaultySigma is the reduced margin of the Faulty-Bits design.
	FaultySigma float64

	// CombineFaultyBits, with ModeIRAW, additionally re-margins the
	// interrupted write path to FaultySigma and installs fault maps — the
	// Section 4.4 combination for even higher frequency.
	CombineFaultyBits bool

	// Seed drives fault-map generation and any other stochastic state.
	Seed uint64

	// DisableFastPaths selects the reference engine — the engine's one
	// switch between its fast and reference paths, fixed when the core is
	// built. Run then steps every cycle (no idle-cycle skip), and the
	// cache blocks take full way and tick scans and a lazily pruned MSHR
	// table instead of their live-way mask scans, packed-LRU victim and
	// MSHR record generations. Results are bit-identical either way; the
	// equivalence fuzz and the benchmark's correctness check hold the fast
	// engine to this one. The reference engine also fails the run if the
	// IQ gate ever opens over a stabilizing entry (iq.Queue.EntriesStable).
	DisableFastPaths bool

	// MaxCycles guards against pipeline deadlock (0 = automatic bound).
	MaxCycles int64
}

// MaxWidth is the largest fetch/issue width the engine models; wider cores
// would need a modelled multi-port memory system and front end.
const MaxWidth = 4

// DefaultConfig returns the modelled core at the given operating point.
func DefaultConfig(v circuit.Millivolts, mode circuit.Mode) Config {
	return Config{
		Vcc:               v,
		Mode:              mode,
		Width:             2,
		Scoreboard:        scoreboard.DefaultConfig(),
		IQ:                iq.DefaultConfig(),
		Hierarchy:         cache.DefaultHierarchyConfig(),
		Predictor:         predictor.DefaultConfig(),
		MemLatencyTime:    240, // ~120 cycles at the 700 mV logic clock
		MispredictPenalty: 11,
		FrontDepth:        3,
		FaultySigma:       4,
		Seed:              1,
	}
}

// DefaultConfigWidth returns DefaultConfig widened (or narrowed) to the
// given fetch/issue width, raising the IQ's ICI and AI to match so the
// wider front end can actually be fed and issued. Width 2 returns exactly
// DefaultConfig, so journal keys and recorded goldens for the modelled
// core are unchanged.
func DefaultConfigWidth(v circuit.Millivolts, mode circuit.Mode, width int) Config {
	cfg := DefaultConfig(v, mode)
	cfg.Width = width
	if width > cfg.IQ.ICI {
		cfg.IQ.ICI = width
	}
	if width > cfg.IQ.AI {
		cfg.IQ.AI = width
	}
	return cfg
}

// Validate reports whether the configuration can build a core: New fails
// on exactly these conditions, and no block constructor panics on a
// configuration that passes.
func (c Config) Validate() error {
	if !c.Vcc.Valid() {
		return fmt.Errorf("core: invalid Vcc %v", c.Vcc)
	}
	if c.Width < 1 || c.Width > MaxWidth {
		return fmt.Errorf("core: width %d must be in [1, %d]", c.Width, MaxWidth)
	}
	if c.Width > c.IQ.ICI {
		return fmt.Errorf("core: width %d exceeds IQ.ICI=%d (the issue stage reads only the ICI oldest IQ slots); raise IQ.ICI/AI or build the config with DefaultConfigWidth", c.Width, c.IQ.ICI)
	}
	switch c.Mode {
	case circuit.ModeBaseline, circuit.ModeIRAW, circuit.ModeFaultyBits, circuit.ModeExtraBypass:
	default:
		return fmt.Errorf("core: unknown mode %v", c.Mode)
	}
	if maxN := circuitParams(&c).MaxStabilizeCycles; c.ForcedN > maxN {
		return fmt.Errorf("core: ForcedN %d exceeds the circuit's MaxStabilizeCycles %d", c.ForcedN, maxN)
	}
	if c.MemLatencyTime <= 0 {
		return fmt.Errorf("core: MemLatencyTime must be positive")
	}
	if c.MispredictPenalty < 1 || c.FrontDepth < 1 {
		return fmt.Errorf("core: penalties must be positive")
	}
	// Sub-block configurations are user input at this boundary: reject them
	// with errors here so the constructors' invariant panics stay
	// unreachable through New.
	if err := c.Scoreboard.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.IQ.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.Predictor.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// The trace ISA names every register, and an IRAW plan's N is at most
	// the circuit's bound, which the Store Table and the scoreboard's
	// bubble must both hold.
	if c.Scoreboard.Regs < isa.NumRegs {
		return fmt.Errorf("core: scoreboard tracks %d registers, the ISA has %d", c.Scoreboard.Regs, isa.NumRegs)
	}
	if err := c.Hierarchy.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if maxN := circuitParams(&c).MaxStabilizeCycles; c.Mode == circuit.ModeIRAW && min(c.Hierarchy.MaxStabilize, c.Scoreboard.MaxN()) < maxN {
		return fmt.Errorf("core: IRAW needs room for N up to the circuit's MaxStabilizeCycles %d (Store Table MaxStabilize %d, scoreboard MaxN %d)", maxN, c.Hierarchy.MaxStabilize, c.Scoreboard.MaxN())
	}
	if c.Circuit != nil {
		if err := c.Circuit.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}
