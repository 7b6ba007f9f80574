// Package sim is the experiment harness: it runs the workload suite across
// voltage levels and design modes and regenerates every table and figure of
// the paper's evaluation (Section 5), plus the ablations DESIGN.md lists.
//
// Conventions:
//   - every core is warmed with one untimed pass of its trace before the
//     measured pass (the paper's production traces run warm);
//   - suite-level numbers aggregate cycles and time across traces, so they
//     are weighted means;
//   - the energy model is calibrated once per suite on the 600 mV baseline
//     run, per Section 5.1 ("leakage ... set to 10% of the total energy
//     consumption at 600mV").
//
// # Stream/collector architecture
//
// The experiment engine is a streaming pipeline. Runner.Stream is the one
// execution core: it fans every (point, trace) cell across the worker pool
// and emits a PointUpdate the moment a cell completes. A Collector is the
// one collection over a sweep's cells: it places updates into (point,
// trace-index) slots and aggregates each point once the sweep has ended.
// Runner.Collect runs it over Stream, with an optional per-cell hook that
// sees every update as it lands, and the sweep daemon's client
// (internal/service) runs it over cell events. Everything else is built
// on Collect:
//
//   - RunPoint and Sweep return one point's per-trace results, or a
//     (mode, level) grid reshaped into [mode][voltage] points;
//   - LevelFold settles a point when all of its traces have landed and
//     releases whole voltage levels in level order to a LevelFunc. Its Add
//     is the per-cell hook that progressive renderers (cmd/figures,
//     cmd/vccsweep) hand to either Collect, so they print identical rows
//     from either source before the grid finishes.
//
// The paper's evaluation is one (design, voltage, trace) grid read several
// ways, so every simulating experiment (Figure12, Table1, Breakdown, the
// ablations, CalibratedEnergy, ...) is an Experiment: a declaration of
// the points it needs plus a pure Render over their settled aggregates.
// Experiment.Run collects one experiment's points; cmd/figures instead
// adds every selected experiment's points to one Grid, which holds each
// distinct (config, trace list) point once, collects the grid in a single
// stream — each distinct cell simulated once — and renders each
// experiment from it. Grid.Spec writes a grid as one SweepSpec of
// explicit points (each a full core.Config over the suite or a named
// transform of it), which SweepSpec.PointSpecs turns back into the same
// points, so the grid travels whole to a sweep daemon.
//
// Within one stream, cells that share a trace and an engine input
// (core.EngineKey: the config minus what the engine reads only through
// the clock plan) are simulated once. Keyer.Plan makes that decision, for
// Stream and the sweep daemon alike: the lowest-index member of such a
// group simulates, and each other member takes its stitched Result
// re-stamped with its own plan (PlannedCell.Derive), is journaled under
// its own key and is emitted right after it, with PointUpdate.Derived
// naming the source. If a member of the group replays from the journal,
// the others derive from that entry and nothing simulates. A leader's
// failure is each follower's, under the follower's own identity, so a
// test that injects a fault (through the runner's unexported seam, or a
// sweep-service CellSource wrapper) targets a group's leader. RunCell runs
// one cell and so never derives. The sweep daemon leases only each
// group's leader and journals the other members itself once the leader's
// upload is admitted.
//
// In partial mode Collect returns a *PartialError whose Total counts
// cells and whose Cells list every failure in (point, trace) order, while
// LevelFold hands each failed point's lowest-trace-index failure to the
// LevelFunc in its level's fails map.
//
// Concurrency conventions:
//   - a Core is not goroutine-safe: exactly one Core per goroutine. Every
//     window attempt takes a Core of its own from a process-wide pool and
//     resets it to the point's config (core.Core.ResetTo, bit-identical to
//     core.New); only a clean attempt returns its Core to the pool;
//   - the fan-out unit is one (mode, vcc, trace) cell — or, with windowing
//     enabled, one sample window of a cell; jobs never share mutable
//     state, and each writes its *core.Result into its own slot;
//   - emission order follows completion and is scheduling-dependent, but
//     update *content* is not, and collectors place by index — so batch
//     output is bit-identical to sequential output for any worker count;
//   - errors are deterministic: the pool cancels on first failure and the
//     stream's terminal update carries the lowest-index job's error;
//   - cancellation and per-point timeouts preempt from inside the core's
//     run loop (Core.SetStopCheck), so the stream drains promptly even
//     mid-simulation;
//   - every simulating entry point (Sweep, RunPoint, Collect and the
//     experiment declarations) is a Runner method, and the package holds no
//     run configuration of its own: the Runner — built in code, or bound
//     to the shared command-line flags by RegisterFlags — carries worker
//     count, width, windowing, journal, checkpoints, timeouts and retries
//     into every cell.
//
// # Sharding determinism rules
//
// With windowing enabled — explicitly (Runner.WindowInsts > 0) or by the
// automatic long-trace policy (WindowInsts 0 shards traces of at least
// autoWindowThreshold instructions; negative opts out) — long traces
// execute as deterministic sample windows instead of two full passes:
// trace.Shard cuts the trace into fixed measured spans, each prefixed by a
// warm-up interval that executes unmeasured on a fresh core
// (core.WarmReplay or a checkpoint restore, then core.RunWarmed), and
// core.MergeWindowResults stitches the per-window results in window
// order. The rules that keep this deterministic:
//
//   - the shard plan is a pure function of (trace length, WindowInsts,
//     WarmInsts) via Runner.planFor — never of worker count, scheduling or
//     wall clock;
//   - each window simulates a fixed instruction span on a core reset to
//     its config (core.Core.ResetTo, which leaves nothing of what the core
//     ran before), so a window's Result depends only on (config, trace
//     bytes, plan);
//   - stitching always happens in window order, triggered by whichever
//     worker finishes the cell's last window;
//   - traces at or under the window size — and all traces when windowing
//     is off — keep the exact unsharded warm-up + measure methodology, so
//     WindowInsts = 0 and WindowInsts >= len(trace) are bit-identical to
//     the pre-streaming batch engine.
//
// Sharded numbers are a sample-window *approximation* of one production
// pass over the long trace: each window sees only its warm-up prefix of
// history, and the approximation is deterministic and worker-invariant for
// a fixed configuration but not bitwise equal to the unsharded run. Each
// window's prefix replays timing-free (core.WarmReplay), so the default
// prefix is the window's entire history and the stitched numbers land
// within a fraction of a percent of the whole-pass run (golden-tested on
// workload.LongTrace with a 1% gate).
//
// Full-history warm-up is affordable because of the warm-state checkpoint
// store (internal/ckpt): each window's warm prefix restores the deepest
// snapshot at a window boundary and replays only the residual tail, so a
// window start costs O(state size) instead of O(prefix length), and one
// vcc-independent snapshot per (trace, boundary) is shared across every
// operating point, worker and — through a shared journal directory —
// worker process of a sweep. Checkpointing moves work, never numbers: the
// live-replay reference path (Runner.DisableCheckpoints, -ckpt off) is
// bit-identical, enforced by an equivalence fuzz. A window with an empty
// prefix and window >= len(trace) stay bit-identical to the unsharded
// engine.
//
// # Failure semantics
//
// The resilience layer wraps every unit of work so that one bad cell —
// a simulation error, a deadlock timeout, even a panic deep in the
// engine — has a bounded, predictable blast radius:
//
//   - Isolation. Each window job runs under recover(): a panic is
//     converted into a typed *CellError carrying the cell's (mode, vcc,
//     trace) identity, the failing window, the attempt count and the
//     recovered stack, instead of killing the process. Every attempt
//     builds its own Core, so a panicked or aborted one leaves nothing
//     behind for the next.
//
//   - Retry. Failures that mark themselves retryable via a
//     `Transient() bool` method (per-point timeouts, and the transient
//     faults tests inject) re-execute up to Runner.Retries times with
//     exponential backoff (Runner.RetryBackoff), re-arming the cell's
//     wall-clock budget per attempt. Permanent failures never retry. A cell that
//     exhausts its retries fails with Attempts recorded — reported, not
//     silently dropped.
//
//   - Strict mode (default). A failed cell cancels outstanding work and
//     the stream emits one terminal update (PointUpdate.Point = -1)
//     carrying the deterministic lowest-index *CellError — exactly the
//     pre-resilience contract, with a typed error.
//
//   - Partial mode (Runner.AllowPartial). A failed cell emits its own
//     update with Err set and identity intact; every other cell — and
//     every other window of the failed cell — still runs, so the
//     reported per-cell error is deterministically the lowest-window one.
//     Batch collectors return completed results plus a *PartialError
//     listing the failures in (point, trace) order; streaming renderers
//     (report.NewStreamTable consumers) mark the cell FAIL(reason) and
//     keep going. Only context cancellation is terminal.
//
//   - Journal (Runner.JournalDir). Completed cells are recorded in an
//     append-only content-addressed on-disk journal (internal/journal)
//     keyed by (trace bytes, full config, windowing plan,
//     core.EngineVersion). A re-run — including after kill -9 mid-sweep —
//     replays recorded cells bit-identically (PointUpdate.Replayed) and
//     simulates only the rest. Torn or corrupt entries are detected by
//     checksum and re-simulated; journal write failures cost only the
//     cache, never the sweep.
package sim

import (
	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/energy"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

// SuiteSpec sizes the standard evaluation workload.
type SuiteSpec struct {
	// InstsPerTrace is the dynamic length of each trace.
	InstsPerTrace int
	// SeedsPerProfile is how many traces each workload class contributes.
	SeedsPerProfile int
}

// Traces materializes the suite.
func (s SuiteSpec) Traces() []*trace.Trace {
	return workload.Suite(s.InstsPerTrace, s.SeedsPerProfile)
}

// Point is one aggregated operating-point measurement.
type Point struct {
	Vcc  circuit.Millivolts
	Mode circuit.Mode
	Agg  *core.Result
}

// CalibratedEnergy builds an energy model calibrated on the 600 mV baseline
// aggregate, as the paper prescribes. The calibration point is built at
// the runner's configured width so width sweeps calibrate against a
// same-width baseline. Figure12 and EDP450 lead with its point and render
// their model through its Render.
func (r *Runner) CalibratedEnergy(traces []*trace.Trace) Experiment[*energy.Model] {
	return Experiment[*energy.Model]{r: r, Points: r.SweepPoints(traces, designs[:1], []circuit.Millivolts{600}),
		Render: func(aggs []*core.Result) (*energy.Model, error) {
			m := energy.New(energy.DefaultWeights())
			if err := m.Calibrate(aggs[0].Activity, aggs[0].Time); err != nil {
				return nil, err
			}
			return m, nil
		}}
}

// IRAWOverheads computes the area and pessimistic-energy overheads of the
// IRAW hardware for the default core (Section 5.3: <0.03% area, <1% energy).
func IRAWOverheads() energy.Area {
	c := core.MustNew(core.DefaultConfig(500, circuit.ModeIRAW))
	return energy.Area{
		CoreSRAMBits:     c.TotalSRAMBits(),
		ExtraLatchBits:   c.IRAWExtraBits(),
		LatchToSRAMRatio: 4,
	}
}
