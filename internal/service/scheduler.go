package service

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"lowvcc/internal/core"
	"lowvcc/internal/journal"
	"lowvcc/internal/sim"
)

// SchedulerOpts configures a Scheduler. The zero value is usable: defaults
// fill in at New.
type SchedulerOpts struct {
	// JournalDir roots the daemon's result journal (required). The
	// scheduler claims the directory's exclusive-writer LOCK for the
	// daemon's lifetime and is the only writer inside it.
	JournalDir string

	// LeaseTTL bounds how long a worker may hold a cell without
	// heartbeating before the cell is reclaimed (default 30s). It is the
	// worst-case latency a crashed worker adds to its cells.
	LeaseTTL time.Duration

	// MaxQueuedCells bounds pending+leased cells across all sweeps
	// (default 4096). Submissions that would exceed it fail with
	// BusyError — backpressure instead of unbounded memory.
	MaxQueuedCells int

	// MaxAttempts bounds executions per cell, counting lease reclamations
	// (default 5). A cell that exhausts it is declared failed so a poison
	// cell cannot wedge the sweep.
	MaxAttempts int

	// SweepDeadline, when positive, bounds each sweep's wall clock; the
	// janitor fails overdue sweeps' remaining cells. 0 = no deadline.
	SweepDeadline time.Duration

	// JournalSync selects fsync for the daemon's journal: every admitted
	// result is durable before its cell counts as done.
	JournalSync bool

	// JournalBudget, when positive, caps the daemon journal's disk usage
	// in bytes: least-recently-used entries are evicted to stay under it.
	// 0 = unbounded.
	JournalBudget int64

	// SubmitRate, when positive, throttles SubmitAs per client to this
	// many sweeps per second (token bucket, burst SubmitBurst). Clients
	// over their rate get QuotaError. 0 = no rate limit.
	SubmitRate float64

	// SubmitBurst is the token bucket's capacity (default 2 when
	// SubmitRate is set): how many sweeps a quiet client may submit
	// back-to-back before the rate applies.
	SubmitBurst int

	// MaxCellsPerSweep, when positive, rejects any single sweep that
	// expands to more cells than this with QuotaError — one tenant cannot
	// monopolize the queue with a single giant submission. 0 = unlimited.
	MaxCellsPerSweep int
}

func (o SchedulerOpts) withDefaults() SchedulerOpts {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.MaxQueuedCells <= 0 {
		o.MaxQueuedCells = 4096
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.SubmitBurst <= 0 {
		o.SubmitBurst = 2
	}
	return o
}

// cell lifecycle within a sweepJob. A following cell waits on its group's
// leader and is never leased.
const (
	cellPending = iota
	cellLeased
	cellFollowing
	cellDone
	cellFailed
)

type sweepJob struct {
	id       string
	cells    []Cell
	state    []int
	attempts []int
	started  time.Time

	// plan holds each cell's sim.Keyer.Plan decision, and followers[i]
	// lists in index order the cells sealed from cell i's admitted result
	// (those whose From is i and not journaled). Both are fixed at Submit
	// and read off-lock.
	plan      []sim.PlannedCell
	followers [][]int

	done, failed, replayed, derived int
	terminalState                   string // "" while running

	events  []CellEvent
	subs    map[int]chan CellEvent
	nextSub int
}

func (job *sweepJob) total() int     { return len(job.cells) }
func (job *sweepJob) finished() bool { return job.done+job.failed == job.total() }

type leaseState struct {
	id     string
	sweep  string
	index  int
	worker string
	expiry time.Time
}

// tokenBucket is one client's submission-rate state (SubmitRate/SubmitBurst).
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// completedRing bounds the Complete-dedup memory: how many recently
// completed lease IDs the scheduler remembers to absorb retried Completes.
// Far larger than any plausible retry window at normal lease churn.
const completedRing = 4096

// Scheduler owns the sweep queue and the lease table. It is safe for
// concurrent use; all methods may be called from HTTP handlers and worker
// goroutines simultaneously. The scheduler itself never simulates — it
// hands out leases, admits uploaded results into the journal, and seals
// the results it derives from them: sim.Keyer.Plan names each cell's
// source (From), the scheduler leases only the unjournaled cells that have
// none and seals the others from their source's entry (see the package
// doc). A follower is never leased, counts as queued until sealed, and
// fails with its leader; a CellSource wrapper never sees it, so
// fault-injection tests target leaders.
type Scheduler struct {
	opts SchedulerOpts
	jnl  *journal.Journal
	lock *journal.Lock
	now  func() time.Time // test hook

	mu         sync.Mutex
	changed    chan struct{} // closed and replaced on every scheduling change (wakeLocked)
	sweeps     map[string]*sweepJob
	order      []string // submission order; scheduling scans it FIFO
	leases     map[string]*leaseState
	completing int // Completes between lease removal and result recording
	queued     int // pending, leased and following cells across all sweeps
	draining   bool
	closed     bool
	sweepSeq   int // numbers sweeps 1, 2, 3… in submission order
	leaseSeq   int

	// Complete-dedup: lease IDs whose completion was already recorded.
	// A retried Complete (dropped response, duplicated request) finds its
	// lease gone but its ID here, and returns success instead of
	// ErrLeaseLost — the lease ID is the request's idempotency token.
	completed      map[string]struct{}
	completedOrder []string // FIFO eviction ring for completed

	// Per-client submission token buckets (SubmitRate).
	buckets map[string]*tokenBucket

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// NewScheduler claims the journal directory's exclusive-writer lock and
// starts the lease janitor. The returned warning is non-empty when a stale
// lock from a dead daemon was reclaimed; surface it to the operator.
func NewScheduler(opts SchedulerOpts) (*Scheduler, string, error) {
	opts = opts.withDefaults()
	if opts.JournalDir == "" {
		return nil, "", fmt.Errorf("service: scheduler requires a journal directory")
	}
	lock, warn, err := journal.AcquireLock(opts.JournalDir)
	if err != nil {
		return nil, "", err
	}
	jnl, err := journal.Open(opts.JournalDir)
	if err != nil {
		lock.Release()
		return nil, warn, err
	}
	jnl.SetSync(opts.JournalSync)
	if opts.JournalBudget > 0 {
		jnl.SetBudget(opts.JournalBudget)
	}
	s := &Scheduler{
		opts:        opts,
		jnl:         jnl,
		lock:        lock,
		now:         time.Now,
		changed:     make(chan struct{}),
		sweeps:      make(map[string]*sweepJob),
		leases:      make(map[string]*leaseState),
		completed:   make(map[string]struct{}),
		buckets:     make(map[string]*tokenBucket),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	go s.janitor()
	return s, warn, nil
}

// Journal exposes the scheduler's journal handle (status endpoints, drain
// verification).
func (s *Scheduler) Journal() *journal.Journal { return s.jnl }

// expandSpec builds the sweep's cells, each carrying its own point as a
// one-point spec, in the spec's (point, trace) order and plans them with
// sim.Keyer.Plan against the daemon's journal. Called outside the
// scheduler lock (trace materialization, hashing and journal reads are
// the expensive parts).
func expandSpec(id string, spec sim.SweepSpec, jnl *journal.Journal) ([]Cell, []sim.PlannedCell, error) {
	points := spec.PointSpecs()
	plan, err := spec.NewRunner().NewKeyer().Plan(points, jnl)
	if err != nil {
		return nil, nil, fmt.Errorf("service: planning %s: %w", id, err)
	}
	if len(plan) == 0 {
		return nil, nil, fmt.Errorf("service: spec expands to zero cells")
	}
	own := make([]sim.SweepSpec, len(points))
	for i, p := range points {
		own[i] = spec // a (mode, level) point travels as that mode and level
		own[i].Modes, own[i].LevelsMV, own[i].Points = []string{p.Cfg.Mode.String()}, []int{int(p.Cfg.Vcc)}, nil
		if j := i - len(points) + len(spec.Points); j >= 0 { // an explicit point as itself
			own[i].Modes, own[i].LevelsMV, own[i].Width, own[i].Points = nil, nil, 0, []sim.SpecPoint{spec.Points[j]}
		}
	}
	cells := make([]Cell, len(plan))
	for i, pc := range plan {
		cells[i] = Cell{
			Sweep:     id,
			Index:     i,
			Label:     points[pc.Point].Label,
			TraceIdx:  pc.Trace,
			TraceName: points[pc.Point].Traces[pc.Trace].Name,
			Key:       pc.Key,
			Spec:      own[pc.Point],
		}
	}
	return cells, plan, nil
}

// Submit validates and enqueues a sweep, returning its ID. Cells whose
// results are already journaled complete instantly as replays — a
// restarted campaign only pays for the missing cells — and so does every
// other cell of a replayed cell's engine group, derived from its entry.
// Fails fast with BusyError when the queue cannot absorb the new cells
// and ErrDraining during shutdown. Submit bypasses per-client admission control; remote
// submissions go through SubmitAs.
func (s *Scheduler) Submit(spec sim.SweepSpec) (string, error) {
	return s.submit("", spec)
}

// SubmitAs is Submit under per-client admission control: the client's
// token bucket (SubmitRate/SubmitBurst) and the per-sweep cell limit
// (MaxCellsPerSweep) apply, rejecting with QuotaError. The client ID is
// whatever the transport trusts — the HTTP layer uses the X-Client-ID
// header, falling back to the peer address.
func (s *Scheduler) SubmitAs(client string, spec sim.SweepSpec) (string, error) {
	return s.submit(client, spec)
}

func (s *Scheduler) submit(client string, spec sim.SweepSpec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}

	// Cheap pre-checks so a doomed submission skips the expensive expansion.
	// The cell count comes from the spec alone: an oversized sweep is
	// rejected before a single trace is generated or hashed.
	if max := s.opts.MaxCellsPerSweep; max > 0 && spec.Cells() > max {
		return "", &QuotaError{
			Client:     client,
			Reason:     fmt.Sprintf("sweep expands to %d cells, per-sweep limit is %d", spec.Cells(), max),
			RetryAfter: s.retryAfterLocked(), // reads only immutable opts
		}
	}
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		return "", ErrDraining
	}
	if client != "" && s.opts.SubmitRate > 0 {
		if !s.takeTokenLocked(client) {
			s.mu.Unlock()
			return "", &QuotaError{
				Client:     client,
				Reason:     fmt.Sprintf("submission rate %.3g/s exceeded", s.opts.SubmitRate),
				RetryAfter: time.Duration(float64(time.Second) / s.opts.SubmitRate),
			}
		}
	}
	s.sweepSeq++
	id := fmt.Sprintf("sweep-%d", s.sweepSeq)
	s.mu.Unlock()

	cells, plan, err := expandSpec(id, spec, s.jnl)
	if err != nil {
		return "", err
	}

	// Journaled cells complete at registration without ever being queued
	// (Get already ran the integrity check on their entries), and so do
	// the cells that take a journaled cell's result: they are journaled
	// here, off-lock too.
	var replays []int
	derived := make(map[int]*core.Result)
	for i, pc := range plan {
		if pc.Entry != nil {
			replays = append(replays, i)
		} else if pc.From >= 0 && plan[pc.From].Entry != nil {
			// A failed write is not a cell failure: the journal is a cache,
			// and a lost entry only costs a re-simulation later.
			e := pc.Derive(plan[pc.From].Entry)
			_ = s.jnl.Put(e)
			derived[i] = e.Result
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return "", ErrDraining
	}
	fresh := len(cells) - len(replays) - len(derived)
	if s.queued+fresh > s.opts.MaxQueuedCells {
		return "", &BusyError{
			RetryAfter: s.retryAfterLocked(),
			Queued:     s.queued,
			Limit:      s.opts.MaxQueuedCells,
		}
	}

	job := &sweepJob{
		id:        id,
		cells:     cells,
		state:     make([]int, len(cells)),
		attempts:  make([]int, len(cells)),
		started:   s.now(),
		plan:      plan,
		followers: make([][]int, len(cells)),
		subs:      make(map[int]chan CellEvent),
	}
	for i, pc := range plan {
		if pc.From >= 0 && derived[i] == nil {
			job.state[i] = cellFollowing
			job.followers[pc.From] = append(job.followers[pc.From], i)
		}
	}
	s.sweeps[id] = job
	s.order = append(s.order, id)
	s.queued += fresh
	if fresh > 0 {
		s.wakeLocked()
	}

	for _, i := range replays {
		job.state[i] = cellDone
		job.done++
		job.replayed++
		ev := s.cellEvent(job, i, plan[i].Entry.Result, "journal", "")
		ev.Replayed = true
		s.emitLocked(job, ev)
	}
	for i := range plan {
		if res := derived[i]; res != nil {
			s.deriveLocked(job, i, plan[i].From, res, "journal")
		}
	}
	s.maybeFinishLocked(job)
	return id, nil
}

// deriveLocked records cell index as done with res, derived from cell
// from, and emits its event. The caller settles the queue count.
func (s *Scheduler) deriveLocked(job *sweepJob, index, from int, res *core.Result, worker string) {
	job.state[index] = cellDone
	job.done++
	job.derived++
	ev := s.cellEvent(job, index, res, worker, "")
	ev.Derived = job.cells[from].Label
	s.emitLocked(job, ev)
}

// takeTokenLocked draws one submission token from client's bucket,
// refilling at SubmitRate up to SubmitBurst. Buckets for clients idle
// long enough to refill fully are pruned when the map grows large.
func (s *Scheduler) takeTokenLocked(client string) bool {
	now := s.now()
	b, ok := s.buckets[client]
	if !ok {
		if len(s.buckets) > 8192 {
			full := float64(s.opts.SubmitBurst)
			for id, old := range s.buckets {
				if old.tokens+now.Sub(old.last).Seconds()*s.opts.SubmitRate >= full {
					delete(s.buckets, id)
				}
			}
		}
		b = &tokenBucket{tokens: float64(s.opts.SubmitBurst), last: now}
		s.buckets[client] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * s.opts.SubmitRate
	if full := float64(s.opts.SubmitBurst); b.tokens > full {
		b.tokens = full
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// retryAfterLocked estimates when queue space should free up: roughly one
// lease TTL — by then either progress was made or reclamation kicked in.
func (s *Scheduler) retryAfterLocked() time.Duration {
	d := s.opts.LeaseTTL
	if d > 10*time.Second {
		d = 10 * time.Second
	}
	if d < time.Second {
		d = time.Second
	}
	return d
}

// Acquire leases the next pending cell to worker, FIFO across sweeps and
// index-ordered within one. When no cell is pending it waits up to wait
// for one to become leasable — a submission, or a requeue after a reclaim
// or a failed attempt — and ends the wait early when ctx ends. It returns
// (nil, nil) when no work arrived in time or the scheduler is draining; a
// draining scheduler answers at once and wakes every waiting Acquire.
func (s *Scheduler) Acquire(ctx context.Context, worker string, wait time.Duration) (*Lease, error) {
	ctx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	for {
		s.mu.Lock()
		if s.draining || s.closed {
			s.mu.Unlock()
			return nil, nil
		}
		lease, changed := s.leaseLocked(worker), s.changed
		s.mu.Unlock()
		if lease != nil || wait <= 0 {
			return lease, nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return nil, nil
		}
	}
}

// wakeLocked wakes everyone waiting on a scheduling change: Acquires
// waiting for work and Drain waiting for leases to settle. It runs
// whenever a cell becomes leasable, a lease ends, a sweep terminates or
// the scheduler drains or closes.
func (s *Scheduler) wakeLocked() {
	close(s.changed)
	s.changed = make(chan struct{})
}

// leaseLocked leases the first pending cell to worker, nil when none is.
// Following cells are never pending, so never leased.
func (s *Scheduler) leaseLocked(worker string) *Lease {
	for _, id := range s.order {
		job := s.sweeps[id]
		if job.terminalState != "" {
			continue
		}
		for i, st := range job.state {
			if st != cellPending {
				continue
			}
			job.state[i] = cellLeased
			s.leaseSeq++
			ls := &leaseState{
				id:     fmt.Sprintf("lease-%d", s.leaseSeq),
				sweep:  id,
				index:  i,
				worker: worker,
				expiry: s.now().Add(s.opts.LeaseTTL),
			}
			s.leases[ls.id] = ls
			return &Lease{
				ID:    ls.id,
				Cell:  job.cells[i],
				TTLMS: s.opts.LeaseTTL.Milliseconds(),
			}
		}
	}
	return nil
}

// Heartbeat extends a live lease by one TTL. ErrLeaseLost means the lease
// expired: the worker must abandon the cell. A heartbeat that arrives
// after the TTL but before the janitor's next pass does not revive the
// lease — it reclaims it inline, so the expiry the worker was promised is
// exact regardless of janitor cadence.
func (s *Scheduler) Heartbeat(leaseID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls, ok := s.leases[leaseID]
	if !ok {
		return ErrLeaseLost
	}
	if s.now().After(ls.expiry) {
		s.reclaimLocked(ls, fmt.Sprintf("lease %s expired (worker %s heartbeat arrived late)", ls.id, ls.worker))
		return ErrLeaseLost
	}
	ls.expiry = s.now().Add(s.opts.LeaseTTL)
	return nil
}

// reclaimLocked removes an expired lease and requeues its cell (charging
// one attempt). Shared by the janitor and the late-heartbeat path.
func (s *Scheduler) reclaimLocked(ls *leaseState, reason string) {
	delete(s.leases, ls.id)
	s.wakeLocked()
	job := s.sweeps[ls.sweep]
	if job.terminalState != "" {
		return
	}
	s.failAttemptLocked(job, ls.index, reason)
}

// Complete records a cell's outcome. On success entry carries the sealed
// journal-entry bytes, and the result enters the daemon's journal only
// through journal.Admit, which verifies them first. The scheduler believes
// only what that content check vouches for; results never count on a
// worker's say-so, so a corrupt or empty upload is charged as a failed
// attempt and the cell requeues. An admitted result also seals the cell's
// followers, each journaled under its own key and emitted right after the
// cell with the same worker.
//
// Complete is idempotent per lease: the lease ID doubles as the request's
// idempotency token, and a retried Complete whose first try was already
// recorded (dropped response, duplicated request) returns nil without
// changing anything. ErrLeaseLost means the lease was reclaimed before
// any completion arrived — only the current leaseholder counts, so
// reclamation can never double-count a cell.
func (s *Scheduler) Complete(leaseID, worker, errMsg string, entry []byte) error {
	s.mu.Lock()
	ls, ok := s.leases[leaseID]
	if !ok {
		_, dup := s.completed[leaseID]
		s.mu.Unlock()
		if dup {
			return nil
		}
		return ErrLeaseLost
	}
	delete(s.leases, leaseID)
	s.recordCompletedLocked(leaseID)
	job := s.sweeps[ls.sweep]
	cell := job.cells[ls.index]
	// completing keeps Drain honest while the journal IO below runs
	// outside the lock: the lease is gone but the cell isn't recorded yet.
	s.completing++
	s.mu.Unlock()

	var res *core.Result
	var derived []*journal.Entry // the followers' entries, in followers order
	failure := ""
	if errMsg != "" {
		failure = fmt.Sprintf("worker %s: %s", worker, errMsg)
	} else if ent, err := s.jnl.Admit(cell.Key, entry); err != nil {
		failure = fmt.Sprintf("worker %s uploaded no valid entry for %s: %v", worker, cell.Key, err)
	} else {
		res = ent.Result
		for _, f := range job.followers[ls.index] {
			d := job.plan[f].Derive(ent)
			_ = s.jnl.Put(d) // a lost entry costs a re-simulation, as at Submit
			derived = append(derived, d)
		}
	}

	s.mu.Lock()
	defer func() {
		s.completing--
		s.wakeLocked()
		s.mu.Unlock()
	}()
	if job.terminalState != "" {
		// The sweep ended while we were off-lock (deadline, drain). The
		// journaled result remains valid for future replays; nothing to
		// record.
		return nil
	}
	if failure != "" {
		s.failAttemptLocked(job, ls.index, failure)
		return nil
	}
	job.state[ls.index] = cellDone
	job.done++
	s.queued--
	s.emitLocked(job, s.cellEvent(job, ls.index, res, worker, ""))
	for i, f := range job.followers[ls.index] {
		s.queued--
		s.deriveLocked(job, f, ls.index, derived[i].Result, worker)
	}
	s.maybeFinishLocked(job)
	return nil
}

// recordCompletedLocked remembers a completed lease ID for Complete
// dedup, evicting the oldest remembered ID past completedRing.
func (s *Scheduler) recordCompletedLocked(leaseID string) {
	s.completed[leaseID] = struct{}{}
	s.completedOrder = append(s.completedOrder, leaseID)
	if len(s.completedOrder) > completedRing {
		delete(s.completed, s.completedOrder[0])
		s.completedOrder = s.completedOrder[1:]
	}
}

// failAttemptLocked charges one failed attempt to a cell: requeue while
// attempts remain, otherwise declare the cell failed and emit the failure,
// then fail each of its followers, under its own identity, for the same
// reason.
func (s *Scheduler) failAttemptLocked(job *sweepJob, index int, reason string) {
	job.attempts[index]++
	if job.attempts[index] < s.opts.MaxAttempts {
		job.state[index] = cellPending
		return
	}
	reason = fmt.Sprintf("%s (attempt %d/%d, giving up)", reason, job.attempts[index], s.opts.MaxAttempts)
	for _, i := range append([]int{index}, job.followers[index]...) {
		job.state[i] = cellFailed
		job.failed++
		s.queued--
		s.emitLocked(job, s.cellEvent(job, i, nil, "", reason))
	}
	s.maybeFinishLocked(job)
}

// cellEvent builds the progress record for one recorded cell outcome.
func (s *Scheduler) cellEvent(job *sweepJob, index int, res *core.Result, worker, errMsg string) CellEvent {
	c := job.cells[index]
	cfg := c.Spec.Expand()[0].Config
	return CellEvent{
		Sweep:     job.id,
		Index:     index,
		Label:     c.Label,
		Mode:      cfg.Mode.String(),
		VccMV:     int(cfg.Vcc),
		TraceIdx:  c.TraceIdx,
		TraceName: c.TraceName,
		Worker:    worker,
		Result:    res,
		Err:       errMsg,
		Done:      job.done,
		Failed:    job.failed,
		Total:     job.total(),
	}
}

// maybeFinishLocked emits the terminal event and closes subscriptions once
// every cell is recorded.
func (s *Scheduler) maybeFinishLocked(job *sweepJob) {
	if job.terminalState != "" || !job.finished() {
		return
	}
	state := "done"
	if job.failed > 0 {
		state = "failed"
	}
	s.terminateLocked(job, state)
}

// terminateLocked moves the sweep to a terminal state: cells still pending,
// leased or following are abandoned (their queue slots released), the
// terminal event is emitted, and every subscriber channel closes.
func (s *Scheduler) terminateLocked(job *sweepJob, state string) {
	for i, st := range job.state {
		if st == cellPending || st == cellLeased || st == cellFollowing {
			job.state[i] = cellFailed
			s.queued--
		}
	}
	job.terminalState = state
	s.emitLocked(job, CellEvent{
		Sweep:    job.id,
		Index:    -1,
		Done:     job.done,
		Failed:   job.total() - job.done,
		Total:    job.total(),
		Terminal: true,
		State:    state,
	})
	for id, ch := range job.subs {
		close(ch)
		delete(job.subs, id)
	}
	s.wakeLocked()
}

// emitLocked appends the event to the sweep's history and fans it out
// without ever blocking: a subscriber whose channel is full is
// disconnected (channel closed) instead of stalling the scheduler — the
// streaming handler detects the close and resubscribes from history.
func (s *Scheduler) emitLocked(job *sweepJob, ev CellEvent) {
	job.events = append(job.events, ev)
	for id, ch := range job.subs {
		select {
		case ch <- ev:
		default:
			close(ch)
			delete(job.subs, id)
		}
	}
}

// Subscribe returns the sweep's event history so far plus a live channel
// for what follows. The channel closes at the terminal event or when the
// subscriber falls behind (subscriberBuf undelivered events); after a lag
// close, resubscribe and resume from the returned history. cancel is
// idempotent and must be called to release the subscription.
func (s *Scheduler) Subscribe(sweepID string) ([]CellEvent, <-chan CellEvent, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.sweeps[sweepID]
	if !ok {
		return nil, nil, nil, ErrUnknownSweep
	}
	history := append([]CellEvent(nil), job.events...)
	ch := make(chan CellEvent, subscriberBuf)
	if job.terminalState != "" {
		// Already over: the full story is in history.
		close(ch)
		return history, ch, func() {}, nil
	}
	id := job.nextSub
	job.nextSub++
	job.subs[id] = ch
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if c, ok := job.subs[id]; ok {
			close(c)
			delete(job.subs, id)
		}
	}
	return history, ch, cancel, nil
}

// subscriberBuf is each subscription channel's buffer: enough to ride out
// a slow flush, small enough that an abandoned connection is detected
// quickly.
const subscriberBuf = 256

// Status summarizes one sweep.
func (s *Scheduler) Status(sweepID string) (SweepStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.sweeps[sweepID]
	if !ok {
		return SweepStatus{}, ErrUnknownSweep
	}
	state := job.terminalState
	if state == "" {
		state = "running"
	}
	return SweepStatus{
		ID:       job.id,
		State:    state,
		Done:     job.done,
		Failed:   job.failed,
		Replayed: job.replayed,
		Derived:  job.derived,
		Total:    job.total(),
	}, nil
}

// Draining reports whether a drain is in progress or finished.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// janitor reclaims expired leases and enforces sweep deadlines. It runs at
// a quarter of the lease TTL so a dead worker's cells requeue at most
// 1.25 TTL after its last heartbeat.
func (s *Scheduler) janitor() {
	defer close(s.janitorDone)
	interval := s.opts.LeaseTTL / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-tick.C:
			s.sweepExpired()
		}
	}
}

// sweepExpired performs one janitor pass.
func (s *Scheduler) sweepExpired() {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()

	// Deterministic reclamation order for the log and tests.
	var expired []string
	for id, ls := range s.leases {
		if now.After(ls.expiry) {
			expired = append(expired, id)
		}
	}
	sort.Strings(expired)
	for _, id := range expired {
		ls := s.leases[id]
		s.reclaimLocked(ls,
			fmt.Sprintf("lease %s expired (worker %s stopped heartbeating)", ls.id, ls.worker))
	}

	if s.opts.SweepDeadline > 0 {
		for _, id := range s.order {
			job := s.sweeps[id]
			if job.terminalState == "" && now.Sub(job.started) > s.opts.SweepDeadline {
				s.terminateLocked(job, "failed")
			}
		}
	}
}

// Drain gracefully winds the scheduler down: new submissions and lease
// acquisitions stop immediately, in-flight leases run to completion (or
// expiry), and sweeps still unfinished afterwards end "interrupted" — their
// journaled cells replay on resubmission to the next daemon. Returns
// ctx.Err() if the context expires first (in-flight leases are then
// abandoned where they stand; the journal stays consistent regardless).
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.wakeLocked()
	for (len(s.leases) > 0 || s.completing > 0) && ctx.Err() == nil {
		changed := s.changed
		s.mu.Unlock()
		select {
		case <-changed:
		case <-ctx.Done():
		}
		s.mu.Lock()
	}
	err := ctx.Err()
	for _, id := range s.order {
		if job := s.sweeps[id]; job.terminalState == "" {
			s.terminateLocked(job, "interrupted")
		}
	}
	s.mu.Unlock()
	return err
}

// Close stops the janitor, ends any still-running sweeps as interrupted,
// and releases the journal lock. Idempotent.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	s.wakeLocked()
	for _, id := range s.order {
		if job := s.sweeps[id]; job.terminalState == "" {
			s.terminateLocked(job, "interrupted")
		}
	}
	s.mu.Unlock()

	close(s.janitorStop)
	<-s.janitorDone
	return s.lock.Release()
}
