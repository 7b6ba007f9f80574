// Package service is the sweep daemon: an HTTP/JSON control plane that
// accepts sweep specifications, decomposes them into journal-keyed cells,
// and hands the cells to workers under time-bounded leases. It turns the
// sim runner's single-process resilience layer (journaling, retries,
// partial sweeps) into a multi-process one: workers can crash, hang, or be
// kill -9'ed and the sweep still completes, bit-identical to an
// uninterrupted local run.
//
// # Cells and content addressing
//
// A submitted SweepSpec expands into one Cell per (point, trace) pair in
// sim.SweepSpec.Expand order, as a local sweep of it does: its (mode,
// level) grid, then its explicit points. An explicit point that fails
// core's validation or a size bound is a rejected submission, never a
// failed lease.
// Each cell carries the journal content address (sim.Runner.CellKey) that
// its result must land under — a hash of the trace bytes, the full core
// configuration, the windowing plan and the engine version. That key is
// the system's idempotency token: executing a cell twice is harmless
// because both executions write the same bytes to the same address, and a
// replayed cell is indistinguishable from a fresh one.
//
// Which cells simulate is decided by sim.Keyer.Plan, the planner
// sim.Runner.Stream uses too: the cells of one trace whose configurations
// share a core.EngineKey simulate identical cycles — IRAW at 600 mV and
// above is timed as baseline — and differ only in their clock plan. Only a
// group's lowest-index cell, its leader, is ever leased. When the leader's
// upload is admitted, the daemon journals every other member, a follower,
// under the follower's own key with the leader's result re-stamped by
// sim.PlannedCell.Derive: the bytes a worker would have uploaded for it. The
// follower's event is marked Derived and follows the leader's. A leader
// that exhausts its attempts fails its followers under their own
// identity, and a group with a member already journaled derives the rest
// at Submit. Followers are never leased, so a test that injects faults
// through a CellSource wrapper targets leaders.
//
// Results reach the daemon one way. Every worker seals its result in
// memory (journal.Seal) and uploads the sealed entry bytes in the
// Complete call (result push-down); it writes no journal of its own. The
// daemon re-derives the sha256 content address and cell key from the
// uploaded bytes before admitting them (journal.Admit), so a buggy or
// byzantine worker can corrupt nothing — a bad or missing upload is
// rejected, charged as a failed attempt, and the cell requeues. The
// scheduler is the only writer of the daemon's journal, and no shared
// filesystem is required to join a fleet.
//
// # Leases, heartbeats, reclamation
//
// Workers pull cells by acquiring a Lease — exclusive, time-bounded
// (SchedulerOpts.LeaseTTL) permission to execute one cell. An idle
// worker's Acquire waits on the scheduler (a long poll, bounded by the
// worker's Poll) and returns the moment a cell becomes leasable. A live worker
// extends its lease by heartbeating at TTL/3; the scheduler's janitor
// reclaims any lease that outlives its TTL and requeues the cell, so a
// crashed, hung, partitioned or kill -9'ed worker delays its cells by at
// most one TTL. A worker that comes back from a pause after losing its
// lease gets ErrLeaseLost on the next heartbeat or completion and abandons
// the cell; only the current leaseholder's completion counts, so a cell is
// never double-counted even when an old and a new holder both finish it
// (their results are bit-identical by the keying contract anyway). Each
// reclamation increments the cell's attempt count; a cell that exhausts
// SchedulerOpts.MaxAttempts is declared failed and the sweep finishes
// partial, reporting it — a poison cell cannot wedge the service.
//
// # Failure model
//
// The faults the service tolerates by design, and what each degrades to
// (never a wrong number — at worst re-done work or a reported-failed
// cell):
//
//   - Worker crash / kill -9 mid-cell: lease expires, cell requeues,
//     another worker re-runs it. Cost: one TTL of latency. A result never
//     uploaded never reaches the daemon's journal; a torn upload fails
//     the content check like any corrupt one.
//   - Network partition, worker side: heartbeats stop getting through;
//     after enough misses to guarantee the TTL has passed, the worker
//     cancels the cell, abandons cleanly and rejoins the poll loop. The
//     daemon reclaims the lease and requeues the cell. A worker that
//     finishes just as the partition heals completes normally — its
//     upload is verified like any other.
//   - Dropped or duplicated Complete: the lease ID doubles as the
//     request's idempotency token. Workers retry a failed Complete with
//     jittered backoff; the daemon remembers recently completed leases
//     and absorbs duplicates, so a retried Complete after a dropped
//     response can never double-count a cell. A Complete that never
//     arrives at all degrades to lease expiry (above).
//   - Corrupt upload (buggy or byzantine worker): the daemon verifies
//     the sealed bytes' sha256 content address and cell key before
//     admitting them; a bad upload is rejected, the attempt is charged,
//     and the cell requeues under MaxAttempts — the scheduler believes
//     the verified bytes, never the worker.
//   - Slow client / disconnect mid-stream: its event subscription is
//     dropped; the sweep runs on. Slow subscribers are disconnected
//     rather than ever stalling the scheduler (see Scheduler.Subscribe).
//   - Queue full: submission fails fast with BusyError (HTTP 429 +
//     Retry-After) instead of queueing unboundedly. Per-client token
//     buckets and the per-sweep cell limit (QuotaError, also 429)
//     throttle a greedy tenant without starving the rest.
//   - Disk full / store over budget: journal and checkpoint stores are
//     caches, and both are the one sealed-record log (internal/journal).
//     Write failures are counted and swallowed (the cell re-runs later).
//     Under -journal-budget the journal, and under -ckpt-budget each
//     worker's checkpoint store, compacts its record files into one
//     holding the most recently used records, up to ⅞ of the budget; the
//     write that triggered it always survives. An evicted entry is a
//     future re-simulation or live replay, never an error.
//   - Daemon dies: the exclusive-writer LOCK file (internal/journal) is
//     reclaimed by the next daemon after a pid+start-time liveness check
//     (a recycled pid cannot wedge it); completed cells replay from the
//     journal on resubmission, only missing cells re-simulate.
//   - Drain (SIGTERM): no new leases, no new sweeps (503), waiting
//     Acquires return empty at once, in-flight cells finish and journal;
//     still-incomplete sweeps end "interrupted".
//     Resubmitting the same spec to the next daemon replays the finished
//     cells and runs only the remainder.
//
// Two worker flavors run the same CellSource-driven loop and push results
// down from memory: in-process goroutine slots inside the daemon (no HTTP
// hop; they share the checkpoint store under <journal>/local) and
// external worker processes (sweepd -worker -join <addr>) that pull
// leases over HTTP. Correctness never depends on the flavor or the worker
// count: the acceptance tests run the same sweep with 1, 2 and 4 workers
// under kill -9, partitions, torn writes and corrupt uploads and assert
// identical journals.
package service

import (
	"errors"
	"fmt"
	"time"

	"lowvcc/internal/core"
	"lowvcc/internal/sim"
)

// Cell is one schedulable unit of a sweep: a single (point, trace)
// simulation, content-addressed by Key.
type Cell struct {
	// Sweep and Index identify the cell within its sweep; cells are
	// indexed in the spec's (point, trace) expansion order.
	Sweep string `json:"sweep"`
	Index int    `json:"index"`

	// Label is the operating point's label (sim.SweepLabel for a (mode,
	// level) grid point): what progress lines print and cell events carry.
	Label string `json:"label"`

	TraceIdx  int    `json:"trace_idx"`
	TraceName string `json:"trace_name"`

	// Key is the journal content address the cell's result lands under.
	// The worker recomputes it from Spec and refuses the cell on mismatch
	// (an engine-version or windowing drift between daemon and worker).
	Key string `json:"key"`

	// Spec is the submitted spec reduced to this cell's point (a grid
	// point as its one mode and level), from which the worker regenerates
	// the point's configuration and trace deterministically.
	Spec sim.SweepSpec `json:"spec"`
}

// Lease is time-bounded permission to execute one cell. The holder must
// heartbeat before TTL expires or the scheduler reassigns the cell.
type Lease struct {
	ID   string `json:"id"`
	Cell Cell   `json:"cell"`

	// TTLMS is the lease's time budget in milliseconds; heartbeat at a
	// third of it.
	TTLMS int64 `json:"ttl_ms"`
}

// TTL returns the lease's time budget.
func (l *Lease) TTL() time.Duration { return time.Duration(l.TTLMS) * time.Millisecond }

// CellEvent is one progress record of a running sweep. Terminal events
// (Terminal=true, Index=-1) carry the sweep's final state instead of a
// cell.
type CellEvent struct {
	Sweep string `json:"sweep"`
	// Index is the completed cell's index, or -1 on the terminal event.
	Index     int    `json:"index"`
	Label     string `json:"label,omitempty"`
	Mode      string `json:"mode,omitempty"`
	VccMV     int    `json:"vcc_mv,omitempty"`
	TraceIdx  int    `json:"trace_idx,omitempty"`
	TraceName string `json:"trace_name,omitempty"`

	// Replayed marks a cell served from the journal without simulating.
	Replayed bool `json:"replayed,omitempty"`
	// Derived, when non-empty, is the label of the cell this one's Result
	// was derived from instead of simulating: the leader of its engine
	// group (see Scheduler), or the group's journaled member at Submit.
	// Result is that cell's re-stamped with this cell's clock plan.
	Derived string `json:"derived,omitempty"`
	// Worker names who completed the cell (in-process slots are "local/N";
	// a derived cell names its leader's worker, and a cell replayed or
	// derived at Submit names "journal").
	Worker string `json:"worker,omitempty"`

	// Result is the cell's simulation result (nil on failure and on the
	// terminal event — aggregate results are read per-cell).
	Result *core.Result `json:"result,omitempty"`
	// Err is the cell's (or sweep's) failure, "" on success.
	Err string `json:"err,omitempty"`

	Done   int `json:"done"`
	Failed int `json:"failed,omitempty"`
	Total  int `json:"total"`

	Terminal bool `json:"terminal,omitempty"`
	// State on the terminal event: "done", "failed" or "interrupted".
	State string `json:"state,omitempty"`
}

// SweepStatus is a point-in-time summary of one sweep.
type SweepStatus struct {
	ID string `json:"id"`
	// State: "running", "done", "failed" (some cells exhausted their
	// attempts) or "interrupted" (the daemon drained mid-sweep).
	State    string `json:"state"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Replayed int    `json:"replayed"`
	// Derived counts the done cells derived from a sibling's result
	// instead of leased (CellEvent.Derived).
	Derived int `json:"derived"`
	Total   int `json:"total"`
}

// Terminal reports whether the sweep has finished (in any state).
func (s SweepStatus) Terminal() bool { return s.State != "running" }

// BusyError reports a submission rejected by backpressure: the cell queue
// cannot absorb the sweep. Retry after RetryAfter.
type BusyError struct {
	RetryAfter time.Duration
	Queued     int
	Limit      int
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("service: queue full (%d cells queued, limit %d); retry after %s",
		e.Queued, e.Limit, e.RetryAfter)
}

// QuotaError reports a submission rejected by per-client admission
// control: the client's token bucket ran dry (submission rate) or the
// sweep exceeds the per-sweep cell limit. Like BusyError it surfaces as
// HTTP 429 + Retry-After; unlike BusyError it names the client, so one
// greedy tenant throttles only itself.
type QuotaError struct {
	Client     string
	Reason     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("service: client %q over quota: %s; retry after %s",
		e.Client, e.Reason, e.RetryAfter)
}

// ErrDraining rejects new work while the daemon shuts down gracefully.
var ErrDraining = errors.New("service: draining, not accepting new sweeps")

// ErrLeaseLost tells a worker its lease expired and was reassigned (or the
// lease ID never existed). The worker abandons the cell; whichever holder
// completes it uploads bit-identical bytes by the keying contract.
var ErrLeaseLost = errors.New("service: lease lost")

// ErrUnknownSweep reports a status or subscription request for a sweep ID
// the scheduler has never seen.
var ErrUnknownSweep = errors.New("service: unknown sweep")
