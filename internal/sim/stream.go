package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/ckpt"
	"lowvcc/internal/core"
	"lowvcc/internal/journal"
	"lowvcc/internal/trace"
)

// PointSpec is one operating point to simulate: a core configuration over
// an ordered trace list, plus a label for error reporting and progress
// lines.
type PointSpec struct {
	Label  string
	Cfg    core.Config
	Traces []*trace.Trace

	// set names how Traces derive from the suite, for Grid.Spec; the zero
	// value is the suite itself.
	set TraceSet
}

// PointUpdate is one event on the result stream: a completed (point, trace)
// cell — successfully, from the journal, or (with AllowPartial) as an
// isolated failure — or, as the last update before the channel closes, the
// sweep's terminal error.
type PointUpdate struct {
	// Point and Trace locate the cell: specs[Point].Traces[Trace].
	// Both are -1 on the terminal error update.
	Point int
	Trace int
	// Label and TraceName identify the cell for progress lines.
	Label     string
	TraceName string
	// Windows is how many sample windows the cell was sharded into
	// (1 = unsharded whole-trace execution).
	Windows int
	// Result is the cell's (stitched) result; nil when Err is set.
	Result *core.Result
	// Replayed reports that Result came from the journal, not simulation.
	Replayed bool
	// Derived, when non-empty, is the label of the cell Result was derived
	// from instead of simulating: a cell of the same trace and engine
	// input (core.EngineKey), simulated or replayed in this stream, whose
	// Result was re-stamped with this cell's clock plan (Result.Replan).
	Derived string
	// Daemon reports that the cell came from the sweep daemon
	// (service.Client.Collect) rather than this process's stream; its
	// Windows is then 0 (the daemon does not report it).
	Daemon bool
	// Err carries a failure. With Point >= 0 it is one cell's isolated
	// *CellError (AllowPartial mode; the stream continues). With Point < 0
	// it is the terminal update: the deterministic lowest-index *CellError
	// in strict mode, or the context's error on cancellation.
	Err error
	// Done and Total report stream progress in cells.
	Done, Total int
}

// cell is one (point, trace) unit of a stream: its plan (Keyer.Plan), its
// shard plan, the per-window result and error slots, and the countdown
// that triggers stitch-and-emit when the last window lands.
type cell struct {
	PlannedCell
	name      string
	windows   []trace.Window
	results   []*core.Result
	errs      []error
	remaining atomic.Int32
	// traceHash, warmKey and winInsts feed the warm-state checkpoint
	// store: the snapshot family identity and the boundary spacing
	// (warmKey "" means checkpoints are off for this cell).
	traceHash, warmKey string
	winInsts           int
	// startedNanos is the wall-clock stamp of the cell's first claimed
	// window (re-armed when a window retries); the per-point timeout
	// measures from here.
	startedNanos atomic.Int64
	// followers are the cells whose From is this cell: they take its
	// stitched Result re-stamped with their own plan instead of
	// simulating.
	followers []*cell
}

// firstErr returns the lowest-window-index recorded error — deterministic
// because every window of a failed cell still runs and records.
func (cl *cell) firstErr() error {
	for _, err := range cl.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Stream is the runner's core: it fans every (point, trace) cell of specs —
// sharded into sample windows when windowing is enabled — across the worker
// pool and emits each cell's result the moment its last window completes.
// Every batch API (Sweep, RunPoint, Collect and through it every
// experiment) is a thin collector over this stream, via Collect.
//
// Emission order follows completion and is therefore scheduling-dependent,
// but each update's content is not: a cell's Result is bit-identical for
// any worker count, and collectors that place updates by (Point, Trace)
// reconstruct exactly the sequential output.
//
// Failure semantics (see the package doc's "Failure semantics" section for
// the full contract): every window job runs isolated — a panic inside the
// engine is recovered into a typed *CellError instead of killing the
// process — and transient failures retry per the runner's retry policy. In
// strict mode (the default) a failed cell cancels outstanding work and the
// stream emits one terminal update carrying the deterministic lowest-index
// *CellError, then closes. With AllowPartial, failures are isolated to
// their cell: the failed cell emits an update with Err set and identity
// intact, every other cell still runs, and only context cancellation is
// terminal. With journaling enabled, cells whose results are already
// recorded replay instantly (Replayed=true) before any simulation starts.
//
// Keyer.Plan decides which cells simulate: cells of one trace whose
// configurations share a core.EngineKey are simulated once, and each other
// member takes the Result of the cell its plan names (From) by
// core.Result.Replan and carries that cell's label in Derived. Derived
// results are bit-identical to simulated ones. Only simulated cells run
// windows and write their own entries, so a test that injects faults
// through the runner's seam targets a group's leader.
//
// Consumers must drain the channel until it closes; abandoning it
// mid-stream requires cancelling ctx (the producer drops sends once ctx is
// done, so cancellation drains promptly).
func (r *Runner) Stream(ctx context.Context, specs []PointSpec) <-chan PointUpdate {
	ch := make(chan PointUpdate)
	go r.stream(ctx, specs, ch)
	return ch
}

// cfgHash content-addresses the trace-independent half of a cell's inputs:
// the full core configuration and the engine version. The windowing plan
// joins at the cell key — it resolves per trace (planFor), so it cannot
// live in a per-point hash.
func (r *Runner) cfgHash(cfg core.Config) (string, error) {
	blob, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("sim: hashing config: %w", err)
	}
	h := sha256.Sum256(blob)
	return journal.Key(hex.EncodeToString(h[:]), core.EngineVersion), nil
}

// cellKey assembles a cell's journal content address from its trace hash,
// point hash and the windowing plan resolved for its trace length. The
// literal mode=0 names functional warm-up, the only warm mode: it keeps
// every key journaled since warm modes were introduced valid.
func (r *Runner) cellKey(th, pointKey string, n int) string {
	win, warm := r.planFor(n)
	return journal.Key(th, pointKey, fmt.Sprintf("win=%d warm=%d mode=0", win, warm))
}

// traceHash content-addresses a trace's full binary encoding (name and
// records).
func traceHash(t *trace.Trace) (string, error) {
	h := sha256.New()
	if err := trace.Write(h, t); err != nil {
		return "", fmt.Errorf("sim: hashing trace %s: %w", t.Name, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Keyer keys the cells of one sweep: each trace is hashed once and each
// configuration hashed and planned once, however many cells share them.
// It is the one way a cell is keyed and grouped — Stream, CellKey and the
// sweep daemon's cell expansion all go through it, and Plan is the one
// place that decides which cells simulate. A Keyer is not safe for
// concurrent use.
type Keyer struct {
	r      *Runner
	traces map[*trace.Trace]string
	points map[core.Config]string
	engine map[core.Config]engineKeyed
}

// engineKeyed memoizes core.EngineKey for one configuration.
type engineKeyed struct {
	in   core.EngineInput
	plan circuit.ClockPlan
	ok   bool
}

// Group identifies the cells whose timed engine simulates identical cycles:
// one trace under configurations of equal core.EngineKey. Such cells differ
// only in their clock plan, so one member's Result, re-stamped with
// core.Result.Replan, is every other member's. The zero Group is no group:
// the Group of a cell whose configuration does not validate.
type Group struct {
	in core.EngineInput
	tr *trace.Trace
}

// Valid reports whether g is a group, not the zero Group.
func (g Group) Valid() bool { return g.tr != nil }

// NewKeyer returns an empty Keyer under this runner's windowing plan.
func (r *Runner) NewKeyer() *Keyer {
	return &Keyer{
		r:      r,
		traces: make(map[*trace.Trace]string),
		points: make(map[core.Config]string),
		engine: make(map[core.Config]engineKeyed),
	}
}

// hashTrace returns tr's content hash, hashing each trace once.
func (k *Keyer) hashTrace(tr *trace.Trace) (string, error) {
	th, ok := k.traces[tr]
	if !ok {
		var err error
		if th, err = traceHash(tr); err != nil {
			return "", err
		}
		k.traces[tr] = th
	}
	return th, nil
}

// CellKey returns the journal content address of the (cfg, tr) cell, as
// Runner.CellKey does.
func (k *Keyer) CellKey(cfg core.Config, tr *trace.Trace) (string, error) {
	pointKey, ok := k.points[cfg]
	if !ok {
		var err error
		if pointKey, err = k.r.cfgHash(cfg); err != nil {
			return "", err
		}
		k.points[cfg] = pointKey
	}
	th, err := k.hashTrace(tr)
	if err != nil {
		return "", err
	}
	return k.r.cellKey(th, pointKey, len(tr.Insts)), nil
}

// Group returns the (cfg, tr) cell's engine group and clock plan without
// hashing anything: the zero Group when cfg does not validate. Trace
// identity is the *trace.Trace, so cells group only within one Keyer's
// trace set.
func (k *Keyer) Group(cfg core.Config, tr *trace.Trace) (Group, circuit.ClockPlan) {
	e, seen := k.engine[cfg]
	if !seen {
		in, plan, err := core.EngineKey(cfg)
		e = engineKeyed{in: in, plan: plan, ok: err == nil}
		k.engine[cfg] = e
	}
	if !e.ok {
		return Group{}, e.plan
	}
	return Group{in: e.in, tr: tr}, e.plan
}

// PlannedCell is what Keyer.Plan decides for one (point, trace) cell.
type PlannedCell struct {
	// Point and Trace locate the cell: specs[Point].Traces[Trace].
	Point, Trace int
	// Key is the cell's journal content address ("" without a journal).
	Key string
	// Plan is the cell's clock plan.
	Plan circuit.ClockPlan
	// Entry is the cell's journaled entry, nil when the journal holds
	// none: the cell replays it.
	Entry *journal.Entry
	// From is the index of the cell whose Result this cell takes,
	// re-stamped with Plan (Derive): the lowest-index journaled member
	// of its group, else the group's lowest-index member. It is -1 for a
	// cell that simulates or replays.
	From int
}

// Derive returns this cell's journal entry taken from src, the entry of
// the cell it derives from: src's result re-stamped with this cell's clock
// plan (core.Result.Replan) under this cell's key — the bytes simulating
// the cell would have journaled.
func (c PlannedCell) Derive(src *journal.Entry) *journal.Entry {
	return &journal.Entry{Key: c.Key, Windows: src.Windows, Result: src.Result.Replan(c.Plan)}
}

// Plan decides, for every (point, trace) cell of specs in order, which
// cell simulates: the one dedup rule that Stream and the sweep daemon's
// scheduler share. Cells of one Group simulate identical cycles, so only
// one member needs a Result: the lowest-index member the journal holds,
// else the lowest-index member. Every other member takes that Result
// (From). Journaled cells replay. A cell whose config does not validate
// joins no group, so it simulates or replays by itself. Without a journal
// no cell is keyed or replayed. A fault a test injects (through the
// runner's seam or a sweep-service CellSource wrapper) lands only on a
// cell that simulates, so such a test targets a group's leader.
func (k *Keyer) Plan(specs []PointSpec, jnl *journal.Journal) ([]PlannedCell, error) {
	var cells []PlannedCell
	var groups []Group
	lead := make(map[Group]int) // the member the rest of the group takes from
	for p := range specs {
		for ti, tr := range specs[p].Traces {
			g, plan := k.Group(specs[p].Cfg, tr)
			c := PlannedCell{Point: p, Trace: ti, Plan: plan, From: -1}
			if jnl != nil {
				key, err := k.CellKey(specs[p].Cfg, tr)
				if err != nil {
					return nil, err
				}
				c.Key = key
				if e, hit := jnl.Get(key); hit {
					c.Entry = e
				}
			}
			if j, ok := lead[g]; g.Valid() && (!ok || cells[j].Entry == nil && c.Entry != nil) {
				lead[g] = len(cells)
			}
			cells = append(cells, c)
			groups = append(groups, g)
		}
	}
	for i := range cells {
		if g := groups[i]; g.Valid() && cells[i].Entry == nil && lead[g] != i {
			cells[i].From = lead[g]
		}
	}
	return cells, nil
}

// CellKey returns the journal content address the (cfg, tr) cell's
// stitched Result is recorded under given this runner's windowing plan —
// the exact key Stream computes internally. External schedulers
// (internal/service) use it to detect already-journaled cells before
// leasing any work, and workers use it to verify that their engine build
// and configuration agree with the daemon that granted the lease: a key
// mismatch means the two binaries would simulate different numbers, so
// the cell must not run.
func (r *Runner) CellKey(cfg core.Config, tr *trace.Trace) (string, error) {
	return r.NewKeyer().CellKey(cfg, tr)
}

// RunCell runs exactly one (cfg, trace) cell through Collect — with the
// runner's windowing, retries, journal replay and fault injection all in
// effect — and returns the cell's update: its stitched Result, its window
// count and whether it replayed from the journal instead of simulating.
// label identifies the cell in errors, progress lines and fault-injection
// rules, exactly like a PointSpec label.
func (r *Runner) RunCell(ctx context.Context, label string, cfg core.Config, tr *trace.Trace) (PointUpdate, error) {
	var out PointUpdate
	_, err := r.Collect(ctx, []PointSpec{{Label: label, Cfg: cfg, Traces: []*trace.Trace{tr}}},
		func(u PointUpdate) error { out = u; return u.Err })
	if err != nil {
		return PointUpdate{}, err
	}
	if out.Result == nil {
		return PointUpdate{}, fmt.Errorf("sim: cell %s %s produced no result", label, tr.Name)
	}
	return out, nil
}

func (r *Runner) stream(ctx context.Context, specs []PointSpec, ch chan<- PointUpdate) {
	defer close(ch)

	// emit serializes channel sends, the Done counter and the Progress
	// callback: Progress observes strictly increasing Done values and is
	// never invoked concurrently. Sends drop once ctx is cancelled so
	// workers can never block on a departed consumer.
	var cells []*cell
	var emitMu sync.Mutex
	done := 0
	emit := func(u PointUpdate) {
		emitMu.Lock()
		defer emitMu.Unlock()
		done++
		u.Done, u.Total = done, len(cells)
		if r.Progress != nil {
			r.Progress(u)
		}
		select {
		case ch <- u:
		case <-ctx.Done():
		}
	}

	// The journal replays completed cells from an earlier (possibly
	// killed) run; a journal that cannot open is an infrastructure
	// failure, terminal in every mode.
	var jnl *journal.Journal
	if r.JournalDir != "" {
		var err error
		if jnl, err = journal.Open(r.JournalDir); err != nil {
			emit(PointUpdate{Point: -1, Trace: -1, Err: err})
			return
		}
		// Runs before ch closes: a caller that drained the stream finds
		// the journal's file closed.
		defer jnl.Close()
		if r.JournalBudget > 0 {
			jnl.SetBudget(r.JournalBudget)
		}
	}

	// Plan the cells (Keyer.Plan), then build the flat job list in
	// (point, trace, window) order. Job order is what makes strict-mode
	// error reporting deterministic (the pool surfaces the lowest-index
	// failure). Only cells that neither replay nor take another cell's
	// Result get jobs.
	type jobRef struct {
		cell *cell
		win  int
	}
	keys := r.NewKeyer()
	planned, err := keys.Plan(specs, jnl)
	if err != nil {
		emit(PointUpdate{Point: -1, Trace: -1, Err: err})
		return
	}
	cells = make([]*cell, len(planned))
	for i, pc := range planned {
		cells[i] = &cell{PlannedCell: pc, name: specs[pc.Point].Traces[pc.Trace].Name}
	}
	st := r.checkpoints()
	var jobs []jobRef
	var replayed, derived []*cell // derived: cells taking a journaled cell's Result
	warmKeys := make([]string, len(specs))
	for _, cl := range cells {
		switch {
		case cl.Entry != nil:
			replayed = append(replayed, cl)
			continue
		case cl.From >= 0 && cells[cl.From].Entry != nil:
			derived = append(derived, cl)
			continue
		case cl.From >= 0:
			cells[cl.From].followers = append(cells[cl.From].followers, cl)
			continue
		}
		p, tr := cl.Point, specs[cl.Point].Traces[cl.Trace]
		win, warm := r.planFor(len(tr.Insts))
		cl.windows = trace.Shard(tr, win, warm)
		if st != nil && len(cl.windows) > 1 {
			// Only a sharded cell restores checkpoints, so only it
			// needs the trace's identity in the store.
			th, err := keys.hashTrace(tr)
			if err != nil {
				emit(PointUpdate{Point: -1, Trace: -1, Err: err})
				return
			}
			if warmKeys[p] == "" {
				warmKeys[p] = ckpt.WarmConfigKey(specs[p].Cfg)
			}
			cl.traceHash, cl.warmKey, cl.winInsts = th, warmKeys[p], win
		}
		cl.results = make([]*core.Result, len(cl.windows))
		cl.errs = make([]error, len(cl.windows))
		cl.remaining.Store(int32(len(cl.windows)))
		for w := range cl.windows {
			jobs = append(jobs, jobRef{cl, w})
		}
	}

	// deriveFrom journals and emits cl's result taken from src, the entry
	// simulated or replayed for the cell labelled from.
	deriveFrom := func(cl *cell, from string, src *journal.Entry) {
		e := cl.Derive(src)
		if jnl != nil {
			_ = jnl.Put(e)
		}
		emit(PointUpdate{
			Point: cl.Point, Trace: cl.Trace,
			Label: specs[cl.Point].Label, TraceName: cl.name,
			Windows: e.Windows, Result: e.Result, Derived: from,
		})
	}

	// Journal replays first, in (point, trace) order: a resumed sweep
	// streams its recovered prefix instantly, then the cells that derive
	// from it, then simulates only the missing cells.
	for _, cl := range replayed {
		emit(PointUpdate{
			Point: cl.Point, Trace: cl.Trace,
			Label: specs[cl.Point].Label, TraceName: cl.name,
			Windows: cl.Entry.Windows, Result: cl.Entry.Result,
			Replayed: true,
		})
	}
	for _, cl := range derived {
		src := cells[cl.From]
		deriveFrom(cl, specs[src.Point].Label, src.Entry)
	}

	// finish decrements the cell's window countdown and, on the last
	// window, stitches-and-emits (journaling the stitched result) or emits
	// the cell's deterministic lowest-window error; either way each of
	// its followers emits right after it, derived or failed alike.
	finish := func(cl *cell) {
		if cl.remaining.Add(-1) != 0 {
			return
		}
		spec := &specs[cl.Point]
		if err := cl.firstErr(); err != nil {
			emit(PointUpdate{
				Point: cl.Point, Trace: cl.Trace,
				Label: spec.Label, TraceName: cl.name,
				Windows: len(cl.windows), Err: err,
			})
			for _, f := range cl.followers {
				ce := *asCellError(err)
				ce.Label, ce.TraceName, ce.Point, ce.Trace = specs[f.Point].Label, f.name, f.Point, f.Trace
				emit(PointUpdate{
					Point: f.Point, Trace: f.Trace,
					Label: ce.Label, TraceName: f.name,
					Windows: len(cl.windows), Err: &ce,
				})
			}
			return
		}
		res := core.MergeWindowResults(cl.name, cl.results)
		e := &journal.Entry{Key: cl.Key, Windows: len(cl.windows), Result: res}
		if jnl != nil {
			if r.inject != nil && r.inject.tear(spec.Label, cl.name) {
				_ = jnl.PutTruncated(e, -1)
			} else {
				// A failed write is not a cell failure: the journal is a
				// cache, and losing an entry only costs re-simulation.
				_ = jnl.Put(e)
			}
		}
		emit(PointUpdate{
			Point: cl.Point, Trace: cl.Trace,
			Label: spec.Label, TraceName: cl.name,
			Windows: len(cl.windows), Result: res,
		})
		for _, f := range cl.followers {
			deriveFrom(f, spec.Label, e)
		}
	}

	err = r.forEach(ctx, len(jobs), func(j int) error {
		jr := jobs[j]
		cl := jr.cell
		err := r.runWindowAttempts(ctx, &specs[cl.Point], cl, jr.win)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return ctxErr
			}
			cl.errs[jr.win] = err
			if !r.AllowPartial {
				// Strict mode: fail fast. The pool cancels outstanding
				// work and surfaces the lowest-index failure; the failing
				// cell's countdown never completes, so it cannot also emit.
				return err
			}
		}
		finish(cl)
		return nil
	})
	if err != nil {
		u := PointUpdate{Point: -1, Trace: -1, Err: err}
		var ce *CellError
		if errors.As(err, &ce) {
			u.Label, u.TraceName, u.Windows = ce.Label, ce.TraceName, ce.Windows
		}
		emit(u)
	}
}

// runWindowAttempts executes one window with the runner's bounded-retry
// policy: transient failures (IsTransient: per-point timeouts) retry up to
// r.Retries times with exponential backoff, re-arming the cell's
// wall-clock budget per attempt; permanent failures and exhausted retries
// return a *CellError carrying the cell identity, attempt count and — for
// panics — the recovered stack. Context cancellation returns the context's
// error unwrapped.
func (r *Runner) runWindowAttempts(ctx context.Context, spec *PointSpec, cl *cell, win int) error {
	for attempt := 1; ; attempt++ {
		err := r.runWindowOnce(ctx, spec, cl, win)
		if err == nil {
			return nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		if attempt <= r.Retries && IsTransient(err) {
			if r.RetryBackoff > 0 {
				t := time.NewTimer(JitteredBackoff(r.RetryBackoff, attempt))
				select {
				case <-ctx.Done():
					t.Stop()
					return ctx.Err()
				case <-t.C:
				}
			}
			// Re-arm the cell's budget: without this a retried timeout
			// would expire instantly. Sibling windows of the same cell
			// share the stamp, so their budgets extend too — conservative
			// in the right direction for a guard rail.
			cl.startedNanos.Store(time.Now().UnixNano())
			continue
		}
		ce := &CellError{
			Label: spec.Label, TraceName: cl.name,
			Point: cl.Point, Trace: cl.Trace,
			Window: win, Windows: len(cl.windows),
			Attempts: attempt, Err: err,
		}
		var pe *panicError
		if errors.As(err, &pe) {
			ce.Panicked = true
			ce.Stack = pe.stack
		}
		return ce
	}
}

// JitteredBackoff is the sleep before retry number `attempt` (1-based):
// exponential in the attempt count, then jittered uniformly into
// [base/2, base]. The jitter is what stops retries from synchronizing:
// when a died worker's cells are reassigned in a batch (the sweep
// service's lease reclamation does exactly that), unjittered backoff would
// march every replacement into the journal and scheduler in lockstep. The
// other layers that retry over unreliable transports (the sweep service's
// worker↔daemon calls) use it too, so every backoff in the system herds
// the same way.
func JitteredBackoff(backoff time.Duration, attempt int) time.Duration {
	base := backoff << (attempt - 1)
	if base <= 1 {
		return base
	}
	half := base / 2
	return half + rand.N(base-half+1)
}

// windowCores recycles cores across window attempts, of every runner in
// the process (the sweep daemon's worker runs each lease through RunCell,
// so its cells share them too). An attempt takes a core and resets it to
// its point's config, which makes it bit-identical to core.New's; only a
// clean attempt returns its core, so one that failed or panicked part-way
// through is dropped.
var windowCores = sync.Pool{New: func() any { return new(core.Core) }}

// runWindowOnce executes one window attempt in isolation, on a core of its
// own: a panic anywhere inside the engine is recovered into a *panicError
// instead of unwinding the worker goroutine, so one bad cell can never kill
// the sweep.
func (r *Runner) runWindowOnce(ctx context.Context, spec *PointSpec, cl *cell, winIdx int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &panicError{value: v, stack: debug.Stack()}
		}
	}()

	if r.inject != nil {
		if err := r.inject.window(spec.Label, cl.name, winIdx); err != nil {
			return err
		}
	}

	win := &cl.windows[winIdx]
	c := windowCores.Get().(*core.Core)
	if err := c.ResetTo(spec.Cfg); err != nil {
		return fmt.Errorf("%s: %w", spec.Label, err)
	}

	// Preemption: context cancellation and the per-point wall-clock
	// budget are polled from inside the core's run loop, so even a
	// single enormous window aborts promptly. The budget clock starts
	// at the cell's first claimed window.
	if r.PointTimeout > 0 {
		cl.startedNanos.CompareAndSwap(0, time.Now().UnixNano())
	}
	c.SetStopCheck(func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if r.PointTimeout > 0 {
			elapsed := time.Duration(time.Now().UnixNano() - cl.startedNanos.Load())
			if elapsed > r.PointTimeout {
				return &TimeoutError{Label: spec.Label, TraceName: cl.name, Budget: r.PointTimeout}
			}
		}
		return nil
	})

	var res *core.Result
	if len(cl.windows) == 1 {
		// Unsharded cell: the exact batch methodology — one untimed
		// warm-up pass, one measured pass.
		if _, err = c.Run(win.Trace); err != nil {
			return fmt.Errorf("%s: warmup %s: %w", spec.Label, win.Trace.Name, err)
		}
		if res, err = c.Run(win.Trace); err != nil {
			return fmt.Errorf("%s: measure %s: %w", spec.Label, win.Trace.Name, err)
		}
	} else {
		// Sample window: warm the prefix functionally, unmeasured, then
		// measure only the window's span. A prefix that starts at the
		// parent trace's first instruction (Start == Warm, which
		// full-history warm-up guarantees for every window) lands on the
		// checkpoint store's boundaries: WarmTo restores the deepest
		// snapshot and replays only the residual tail. Any other prefix
		// warms through a nil store, which is a live replay.
		st := r.checkpoints()
		if cl.warmKey == "" || win.Start != win.Warm {
			st = nil
		}
		if err = st.WarmTo(c, cl.traceHash, cl.warmKey, cl.winInsts, win.Trace, win.Warm); err != nil {
			return fmt.Errorf("%s: window %s: %w", spec.Label, win.Trace.Name, err)
		}
		if res, err = c.RunWarmed(win.Trace, win.Warm); err != nil {
			return fmt.Errorf("%s: window %s: %w", spec.Label, win.Trace.Name, err)
		}
	}
	cl.results[winIdx] = res
	c.SetStopCheck(nil)
	windowCores.Put(c)
	return nil
}

// SweepPoints expands a (modes x levels) grid into PointSpecs in the fixed
// (mode, level) order every sweep consumer indexes by, each cell at the
// runner's configured width (pointConfig).
func (r *Runner) SweepPoints(traces []*trace.Trace, modes []circuit.Mode, levels []circuit.Millivolts) []PointSpec {
	specs := make([]PointSpec, 0, len(modes)*len(levels))
	for _, mode := range modes {
		for _, v := range levels {
			specs = append(specs, PointSpec{
				Label:  SweepLabel(v, mode),
				Cfg:    r.pointConfig(v, mode),
				Traces: traces,
			})
		}
	}
	return specs
}

// LevelFunc receives one voltage level of a sweep: the level's operating
// points keyed by mode and, with AllowPartial, its failed points keyed by
// mode (each point appears in exactly one of the two maps). A non-nil
// return stops the sweep and is handed back to the caller.
type LevelFunc func(v circuit.Millivolts, pts map[circuit.Mode]*Point, fails map[circuit.Mode]*CellError) error

// LevelFold turns a (mode, level) sweep's cells, points in SweepPoints
// order, into levels: a Collector settles each point, to its aggregate or
// its lowest-trace failure, and levels are released to onLevel strictly in
// level order, each as soon as all of its points have settled. Its Add is
// the onCell hook a renderer hands to Runner.Collect or to the sweep
// daemon's client, so both sources release the same levels. Not safe for
// concurrent use.
type LevelFold struct {
	modes   []circuit.Mode
	levels  []circuit.Millivolts
	onLevel LevelFunc
	col     *Collector
	next    int // first level not yet released
}

// NewLevelFold starts a fold over a (modes x levels) sweep of traces
// traces per point.
func NewLevelFold(modes []circuit.Mode, levels []circuit.Millivolts, traces int, onLevel LevelFunc) *LevelFold {
	return &LevelFold{modes: modes, levels: levels, onLevel: onLevel,
		col: NewCollector(slices.Repeat([]int{traces}, len(modes)*len(levels)))}
}

// Add places one update and releases every level it completes. It returns
// a terminal update's error (Point < 0), Collector.Add's error and the
// first onLevel error.
func (f *LevelFold) Add(u PointUpdate) error {
	if u.Point < 0 && u.Err != nil {
		return u.Err
	}
	if err := f.col.Add(u); err != nil {
		return err
	}
	for ; f.next < len(f.levels); f.next++ {
		v := f.levels[f.next]
		pts := make(map[circuit.Mode]*Point, len(f.modes))
		fails := make(map[circuit.Mode]*CellError)
		for mi, m := range f.modes {
			agg, failed, settled := f.col.point(mi*len(f.levels) + f.next)
			switch {
			case !settled:
				return nil // an unsettled point gates this and later levels
			case failed != nil:
				fails[m] = failed[0]
			default:
				pts[m] = &Point{Vcc: v, Mode: m, Agg: agg}
			}
		}
		if err := f.onLevel(v, pts, fails); err != nil {
			return err
		}
	}
	return nil
}

// asCellError coerces err into a *CellError, wrapping foreign errors so
// consumers always get cell identity fields (possibly zero).
func asCellError(err error) *CellError {
	var ce *CellError
	if errors.As(err, &ce) {
		return ce
	}
	return &CellError{Point: -1, Trace: -1, Err: err}
}
