package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lowvcc/internal/ckpt"
	"lowvcc/internal/journal"
	"lowvcc/internal/sim"
)

// CellSource is the lease protocol from a worker's point of view. Two
// implementations exist: schedSource calls the Scheduler directly
// (in-process worker slots inside the daemon) and httpSource speaks the
// /api/v1/lease endpoints (external sweepd -worker processes). The worker
// loop is identical either way, so every crash-recovery property holds for
// both flavors.
type CellSource interface {
	// Acquire leases the next cell. When none is pending it waits up to
	// wait for one, and returns (nil, nil) if none arrives. A source may
	// return early — an older daemon that does not wait, a drain — so
	// callers must not rely on the full wait having passed.
	Acquire(ctx context.Context, worker string, wait time.Duration) (*Lease, error)
	// Heartbeat extends the lease; ErrLeaseLost means it was reclaimed.
	Heartbeat(ctx context.Context, leaseID string) error
	// Complete reports the cell's outcome. errMsg == "" means success, and
	// entry then carries the sealed journal-entry bytes the worker built
	// in memory (journal.Seal), verified daemon-side before admission. The
	// lease ID is the request's idempotency token: retrying a Complete is
	// always safe.
	Complete(ctx context.Context, leaseID, worker, errMsg string, entry []byte) error
}

// schedSource adapts a Scheduler to CellSource for in-process workers;
// the Scheduler's own Acquire already has the CellSource shape.
type schedSource struct{ *Scheduler }

func (ss schedSource) Heartbeat(_ context.Context, leaseID string) error {
	return ss.Scheduler.Heartbeat(leaseID)
}
func (ss schedSource) Complete(_ context.Context, leaseID, worker, errMsg string, entry []byte) error {
	return ss.Scheduler.Complete(leaseID, worker, errMsg, entry)
}

// WorkerOpts configures a worker loop.
type WorkerOpts struct {
	// Name identifies the worker in leases and events.
	Name string

	// Poll is how long an idle worker waits for work (default 250ms). The
	// wait happens inside Acquire, which returns as soon as a cell becomes
	// leasable; an Acquire that comes back empty sooner is followed by a
	// sleep for the rest of Poll, so the loop never spins.
	Poll time.Duration

	// CellTimeout, when positive, bounds each cell's wall clock
	// (sim.Runner.PointTimeout) — the per-cell deadline.
	CellTimeout time.Duration

	// Retries and RetryBackoff forward to the Runner's window-level
	// transient-failure retry policy.
	Retries      int
	RetryBackoff time.Duration

	// JournalDir is the worker's scratch directory: its ckpt/
	// subdirectory holds the warm-state checkpoint store. Results never
	// land in it — each cell's sealed entry is built in memory and
	// uploaded in Complete, so no filesystem is shared with the daemon.
	// When "", Work uses a throwaway temp directory and RunWorkers uses
	// <scheduler JournalDir>/local.
	JournalDir string

	// CkptBudget bounds the checkpoint store's disk usage in bytes: past
	// it the store's log compacts to its most recently used snapshots, up
	// to ⅞ of the budget (ckpt.Store.SetBudget); 0 = unbounded.
	CkptBudget int64
}

func (o WorkerOpts) withDefaults() WorkerOpts {
	if o.Name == "" {
		o.Name = "worker"
	}
	if o.Poll <= 0 {
		o.Poll = 250 * time.Millisecond
	}
	return o
}

// workLoop pulls leases until the context dies. Every error path reports
// back through Complete so the scheduler learns the outcome as soon as the
// worker does, rather than waiting for lease expiry; a worker that dies
// before reporting is exactly the case lease reclamation covers.
func workLoop(ctx context.Context, src CellSource, opts WorkerOpts) {
	opts = opts.withDefaults()
	for ctx.Err() == nil {
		start := time.Now()
		lease, err := src.Acquire(ctx, opts.Name, opts.Poll)
		if err != nil || lease == nil {
			// Idle or unreachable: sleep out the rest of Poll and re-poll.
			// Acquire errors are indistinguishable from a daemon restart;
			// retrying is correct either way.
			select {
			case <-ctx.Done():
			case <-time.After(opts.Poll - time.Since(start)):
			}
			continue
		}
		runLease(ctx, src, lease, opts)
	}
}

// runLease executes one leased cell under a heartbeat, then reports.
func runLease(ctx context.Context, src CellSource, lease *Lease, opts WorkerOpts) {
	// The cell runs under its own context so a lost lease cancels the
	// simulation promptly instead of wasting the slot on a cell someone
	// else now owns.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		heartbeatLoop(cctx, cancel, src, lease, opts)
	}()

	errMsg := ""
	entry, err := executeCell(cctx, lease, opts)
	if err != nil {
		errMsg = err.Error()
	}
	cancel()
	hb.Wait()

	// Report on the parent context: the cell context is dead by design.
	// A lost lease makes Complete return ErrLeaseLost, which is fine — the
	// reclaimed cell is someone else's now. Transport failures retry with
	// jittered backoff: the lease ID makes retried Completes idempotent,
	// and a Complete that never lands degrades to lease expiry.
	rctx, rcancel := context.WithTimeout(context.WithoutCancel(ctx), 20*time.Second)
	defer rcancel()
	for attempt := 1; ; attempt++ {
		err := src.Complete(rctx, lease.ID, opts.Name, errMsg, entry)
		if err == nil || errors.Is(err, ErrLeaseLost) || attempt >= 3 || rctx.Err() != nil {
			return
		}
		select {
		case <-rctx.Done():
			return
		case <-time.After(sim.JitteredBackoff(200*time.Millisecond, attempt)):
		}
	}
}

// heartbeatLoop extends the lease at TTL/3 until the cell context ends.
// A definitive ErrLeaseLost — or repeated transport failures adding up to
// a TTL — cancels the cell.
func heartbeatLoop(ctx context.Context, cancel context.CancelFunc, src CellSource, lease *Lease, opts WorkerOpts) {
	interval := lease.TTL() / 3
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	misses := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			err := src.Heartbeat(ctx, lease.ID)
			switch {
			case err == nil:
				misses = 0
			case errors.Is(err, ErrLeaseLost):
				cancel()
				return
			default:
				// Transport trouble: the lease may still be live on the
				// daemon. Keep simulating until the misses alone prove the
				// lease must have expired.
				misses++
				if misses >= 4 {
					cancel()
					return
				}
			}
		}
	}
}

// executeCell regenerates the cell's inputs from its one-point spec, verifies the
// content address matches the daemon's (catching engine-version or
// windowing drift between the two binaries), simulates through
// Runner.RunCell and returns the sealed entry for the promised key — the
// bytes journal.Put would write there.
func executeCell(ctx context.Context, lease *Lease, opts WorkerOpts) ([]byte, error) {
	c := lease.Cell
	points := c.Spec.Expand()
	if len(points) != 1 {
		return nil, fmt.Errorf("cell %d: spec holds %d points, want its own one", c.Index, len(points))
	}
	suite := c.Spec.Traces()
	if c.TraceIdx < 0 || c.TraceIdx >= len(suite) {
		return nil, fmt.Errorf("cell %d: trace index %d outside suite of %d", c.Index, c.TraceIdx, len(suite))
	}
	tr := points[0].Traces.Resolve(suite[c.TraceIdx : c.TraceIdx+1])[0]
	if tr.Name != c.TraceName {
		return nil, fmt.Errorf("cell %d: trace %d is %q here, %q on the daemon (workload drift)", c.Index, c.TraceIdx, tr.Name, c.TraceName)
	}
	cfg := points[0].Config

	r := c.Spec.NewRunner()
	r.Workers = 1
	if opts.JournalDir != "" {
		// The store is opened for this cell and closed with it, so its log
		// serves every snapshot another cell or process wrote before now. A
		// directory that will not open leaves a memory-only store.
		st, _ := ckpt.Open(filepath.Join(opts.JournalDir, "ckpt"))
		st.SetBudget(opts.CkptBudget)
		defer st.Close()
		r.WithCheckpointStore(st)
	}
	r.PointTimeout = opts.CellTimeout
	r.Retries, r.RetryBackoff = opts.Retries, opts.RetryBackoff

	key, err := r.CellKey(cfg, tr)
	if err != nil {
		return nil, err
	}
	if key != c.Key {
		return nil, fmt.Errorf("cell %d: key mismatch (worker %s, daemon %s): engine or windowing drift — rebuild the worker", c.Index, key, c.Key)
	}
	u, err := r.RunCell(ctx, c.Label, cfg, tr)
	if err != nil {
		return nil, err
	}
	return journal.Seal(&journal.Entry{Key: c.Key, Windows: u.Windows, Result: u.Result})
}

// RunWorkers starts n in-process worker slots against the scheduler and
// returns a stop function that cancels them and waits. The daemon calls
// this when configured with local simulation capacity; the slots wait on
// the scheduler for work, are named "local/N", and upload through
// Complete like any worker, minus the HTTP hop. When opts.JournalDir is ""
// they share the scratch directory <scheduler JournalDir>/local, whose
// checkpoint store persists across daemon restarts.
func RunWorkers(ctx context.Context, s *Scheduler, n int, opts WorkerOpts) (stop func()) {
	if opts.JournalDir == "" {
		opts.JournalDir = filepath.Join(s.opts.JournalDir, "local")
	}
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		o := opts
		o.Name = fmt.Sprintf("local/%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			workLoop(ctx, schedSource{s}, o)
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// Work runs one external worker loop against a daemon at baseURL until the
// context ends — the body of `sweepd -worker -join <addr>`. External
// workers always push results down, so joining a daemon never requires a
// shared filesystem; when opts.JournalDir is empty a throwaway scratch
// directory holds the checkpoint store for the process's lifetime.
func Work(ctx context.Context, baseURL string, opts WorkerOpts) error {
	src, err := newHTTPSource(baseURL)
	if err != nil {
		return err
	}
	if opts.JournalDir == "" {
		dir, err := os.MkdirTemp("", "sweepd-worker-")
		if err != nil {
			return fmt.Errorf("service: worker scratch directory: %w", err)
		}
		defer os.RemoveAll(dir)
		opts.JournalDir = dir
	}
	workLoop(ctx, src, opts)
	return ctx.Err()
}
