package service

// Robustness tests for the cross-machine fleet features: result
// push-down (no shared filesystem), corrupt-upload rejection, Complete
// idempotency, lease races against expiry, per-client admission quotas,
// deterministic network-fault chaos, and journal budgets under load.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fakeClock drives the scheduler's time hook deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Now()} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// setNow swaps the scheduler's time hook under its lock (every s.now()
// call site holds s.mu, so this is race-safe even with the janitor live).
func setNow(s *Scheduler, fn func() time.Time) {
	s.mu.Lock()
	s.now = fn
	s.mu.Unlock()
}

// pushDownWorkers starts n worker loops with private scratch directories
// that upload sealed bytes in Complete — the no-shared-FS arrangement —
// over src, a fault-injecting wrapper of schedSource{s} that the loops
// share, or schedSource{s} itself when src is nil. Returns a stop func.
func pushDownWorkers(t *testing.T, s *Scheduler, n int, src CellSource) (stop func()) {
	t.Helper()
	if src == nil {
		src = schedSource{s}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		opts := WorkerOpts{
			Name:       fmt.Sprintf("remote/%d", i),
			Poll:       5 * time.Millisecond,
			JournalDir: t.TempDir(),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			workLoop(ctx, src, opts)
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// TestPushDownNoSharedFS: workers with private scratch directories upload
// sealed entries; the daemon's journal ends byte-identical to a local run
// and every progress event still carries its result.
func TestPushDownNoSharedFS(t *testing.T) {
	spec := testSpec()
	ref := localReferenceJournal(t, spec)
	dir := t.TempDir()
	s := newTestScheduler(t, SchedulerOpts{JournalDir: dir, LeaseTTL: time.Second})

	stop := pushDownWorkers(t, s, 2, nil)
	defer stop()

	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitStatus(t, s, id, 60*time.Second)
	if st.State != "done" || st.Done != cellCount(spec) {
		t.Fatalf("push-down sweep = %+v, want done with all %d cells", st, cellCount(spec))
	}
	history, _, cancel, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for _, ev := range history {
		if !ev.Terminal && ev.Err == "" && ev.Result == nil {
			t.Fatalf("cell %d event has no result: push-down lost the payload", ev.Index)
		}
	}
	assertJournalsEqual(t, ref, dir, "push-down")
	if n, err := s.Journal().Verify(); err != nil || n != cellCount(spec) {
		t.Fatalf("daemon journal verify = (%d, %v)", n, err)
	}
}

// TestCorruptUploadRejectedAndRetried: a byzantine worker's tampered
// upload is rejected by the content check, charged as an attempt, and the
// requeued cell completes correctly on an honest retry.
func TestCorruptUploadRejectedAndRetried(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, SchedulerOpts{JournalDir: dir})
	if _, err := s.Submit(singlePointSpec()); err != nil {
		t.Fatal(err)
	}

	lease, err := s.Acquire(t.Context(), "evil", 0)
	if err != nil || lease == nil {
		t.Fatalf("acquire: (%v, %v)", lease, err)
	}
	entry, err := executeCell(context.Background(), lease, WorkerOpts{JournalDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), entry...)
	tampered[len(tampered)-2] ^= 0x40

	if err := s.Complete(lease.ID, "evil", "", tampered); err != nil {
		t.Fatalf("Complete with corrupt entry = %v (rejection is an attempt, not a protocol error)", err)
	}
	if _, ok := s.Journal().Get(lease.Cell.Key); ok {
		t.Fatal("corrupt upload was admitted into the daemon journal")
	}
	if rej := s.Journal().Stats().Rejected; rej != 1 {
		t.Fatalf("journal rejected = %d, want 1", rej)
	}

	// The cell requeued; an honest upload of the same execution's bytes
	// completes it.
	again, err := s.Acquire(t.Context(), "honest", 0)
	if err != nil || again == nil {
		t.Fatalf("cell not requeued after corrupt upload: (%v, %v)", again, err)
	}
	if again.Cell.Key != lease.Cell.Key {
		t.Fatalf("requeued a different cell")
	}
	if err := s.Complete(again.ID, "honest", "", entry); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Journal().Get(lease.Cell.Key); !ok {
		t.Fatal("verified upload did not land in the daemon journal")
	}
}

// TestDuplicateCompleteIsIdempotent: the lease ID is the Complete
// request's idempotency token — a retried Complete after a recorded one
// returns success and changes nothing, while a never-issued lease ID is
// still ErrLeaseLost.
func TestDuplicateCompleteIsIdempotent(t *testing.T) {
	s := newTestScheduler(t, SchedulerOpts{})
	id, err := s.Submit(singlePointSpec())
	if err != nil {
		t.Fatal(err)
	}
	lease, err := s.Acquire(t.Context(), "dup", 0)
	if err != nil || lease == nil {
		t.Fatalf("acquire: (%v, %v)", lease, err)
	}
	completeLease(t, s, lease)
	st1, _ := s.Status(id)

	for i := 0; i < 3; i++ {
		if err := s.Complete(lease.ID, "dup", "", nil); err != nil {
			t.Fatalf("retried Complete #%d = %v, want nil (idempotent)", i+1, err)
		}
	}
	st2, _ := s.Status(id)
	if st1.Done != st2.Done || st2.Done != 1 {
		t.Fatalf("done went %d -> %d under duplicate Completes, want stable 1", st1.Done, st2.Done)
	}
	if err := s.Complete("lease-999999", "ghost", "", nil); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("never-issued lease Complete = %v, want ErrLeaseLost", err)
	}
}

// TestCompleteWinsExpiredUnreclaimedLease: a Complete that lands after the
// TTL but before the janitor's pass counts — completion wins the race,
// which is safe because the result is content-verified either way.
func TestCompleteWinsExpiredUnreclaimedLease(t *testing.T) {
	clock := newFakeClock()
	// Hour-long TTL: the janitor's wall-clock ticks never fire inside the
	// test, so only the fake clock decides expiry.
	s := newTestScheduler(t, SchedulerOpts{LeaseTTL: time.Hour})
	setNow(s, clock.now)
	id, err := s.Submit(singlePointSpec())
	if err != nil {
		t.Fatal(err)
	}
	lease, err := s.Acquire(t.Context(), "slow", 0)
	if err != nil || lease == nil {
		t.Fatalf("acquire: (%v, %v)", lease, err)
	}
	entry := sealedEntry(t, lease)
	clock.advance(2 * time.Hour) // lease is now expired but unreclaimed
	if err := s.Complete(lease.ID, "slow", "", entry); err != nil {
		t.Fatalf("Complete on expired-but-unreclaimed lease = %v, want nil", err)
	}
	st, _ := s.Status(id)
	if st.Done != 1 {
		t.Fatalf("done = %d, want 1", st.Done)
	}
}

// TestLateHeartbeatReclaimsInline: a heartbeat arriving after the TTL
// does not revive the lease — it reclaims it on the spot, requeues the
// cell, and the worker sees ErrLeaseLost.
func TestLateHeartbeatReclaimsInline(t *testing.T) {
	clock := newFakeClock()
	s := newTestScheduler(t, SchedulerOpts{LeaseTTL: time.Hour})
	setNow(s, clock.now)
	id, err := s.Submit(singlePointSpec())
	if err != nil {
		t.Fatal(err)
	}
	lease, err := s.Acquire(t.Context(), "tardy", 0)
	if err != nil || lease == nil {
		t.Fatalf("acquire: (%v, %v)", lease, err)
	}
	clock.advance(90 * time.Minute)
	if err := s.Heartbeat(lease.ID); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("late heartbeat = %v, want ErrLeaseLost", err)
	}
	// The inline reclaim requeued the cell immediately — no janitor pass
	// needed.
	again, err := s.Acquire(t.Context(), "rescue", 0)
	if err != nil || again == nil {
		t.Fatalf("cell not requeued after inline reclaim: (%v, %v)", again, err)
	}
	if again.Cell.Key != lease.Cell.Key {
		t.Fatal("reclaim handed out a different cell")
	}
	completeLease(t, s, again)
	st, _ := s.Status(id)
	if st.Done != 1 {
		t.Fatalf("done = %d, want exactly 1", st.Done)
	}
}

// TestSubmitQuotas: the per-client token bucket throttles one client
// without touching another, refills with time, and the per-sweep cell
// limit rejects oversized submissions outright.
func TestSubmitQuotas(t *testing.T) {
	clock := newFakeClock()
	s := newTestScheduler(t, SchedulerOpts{
		SubmitRate:  1, // 1 sweep/s, burst 2 (default)
		LeaseTTL:    time.Hour,
		MaxAttempts: 1,
	})
	setNow(s, clock.now)

	for i := 0; i < 2; i++ {
		if _, err := s.SubmitAs("alice", singlePointSpec()); err != nil {
			t.Fatalf("alice submit #%d inside burst: %v", i+1, err)
		}
	}
	_, err := s.SubmitAs("alice", singlePointSpec())
	var quota *QuotaError
	if !errors.As(err, &quota) {
		t.Fatalf("alice over-rate submit = %v, want *QuotaError", err)
	}
	if quota.Client != "alice" || quota.RetryAfter <= 0 {
		t.Fatalf("QuotaError = %+v, want alice with positive RetryAfter", quota)
	}

	// Another client and the anonymous local path are unaffected.
	if _, err := s.SubmitAs("bob", singlePointSpec()); err != nil {
		t.Fatalf("bob submit while alice throttled: %v", err)
	}
	if _, err := s.Submit(singlePointSpec()); err != nil {
		t.Fatalf("anonymous submit while alice throttled: %v", err)
	}

	// The bucket refills with time.
	clock.advance(1500 * time.Millisecond)
	if _, err := s.SubmitAs("alice", singlePointSpec()); err != nil {
		t.Fatalf("alice submit after refill: %v", err)
	}

	// Per-sweep cell limit.
	s2 := newTestScheduler(t, SchedulerOpts{MaxCellsPerSweep: 1})
	_, err = s2.SubmitAs("carol", testSpec())
	if !errors.As(err, &quota) {
		t.Fatalf("oversized sweep = %v, want *QuotaError", err)
	}
	if quota.RetryAfter <= 0 {
		t.Fatalf("oversized-sweep RetryAfter = %v, want positive", quota.RetryAfter)
	}
}

// TestHTTPQuota429PerClient: over the wire, a throttled client gets 429 +
// Retry-After while a differently identified client sails through —
// X-Client-ID scopes the bucket.
func TestHTTPQuota429PerClient(t *testing.T) {
	_, base := newTestDaemon(t, ServerOpts{
		SchedulerOpts: SchedulerOpts{SubmitRate: 0.0001, SubmitBurst: 1},
		Workers:       -1,
	})
	ctx := context.Background()

	alice, err := NewClient(base)
	if err != nil {
		t.Fatal(err)
	}
	alice.ClientID = "alice"
	if _, err := alice.Submit(ctx, singlePointSpec()); err != nil {
		t.Fatalf("alice first submit: %v", err)
	}
	_, err = alice.Submit(ctx, singlePointSpec())
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("alice throttled submit = %v, want 429/*BusyError", err)
	}
	if busy.RetryAfter <= 0 {
		t.Fatalf("Retry-After = %v, want positive", busy.RetryAfter)
	}

	bob, err := NewClient(base)
	if err != nil {
		t.Fatal(err)
	}
	bob.ClientID = "bob"
	if _, err := bob.Submit(ctx, singlePointSpec()); err != nil {
		t.Fatalf("bob submit while alice throttled: %v", err)
	}
}

// TestChaosDropDupAcquire: deterministic network faults — dropped Acquire
// responses (orphan leases), dropped Complete responses (forced retries
// into the dedup path) and duplicated Completes — never corrupt the sweep:
// it ends done, exactly once per cell, byte-identical to local.
func TestChaosDropDupAcquire(t *testing.T) {
	spec := testSpec()
	ref := localReferenceJournal(t, spec)
	dir := t.TempDir()
	// Short TTL so orphaned leases (dropped Acquire) requeue quickly.
	s := newTestScheduler(t, SchedulerOpts{JournalDir: dir, LeaseTTL: 300 * time.Millisecond})

	chaos := NewChaosSource(schedSource{s},
		NetFault{Op: "acquire", Kind: NetDrop, Times: 1},
		NetFault{Op: "complete", Kind: NetDrop, Times: 2},
		NetFault{Op: "complete", Kind: NetDup, Times: 2},
	)
	stop := pushDownWorkers(t, s, 2, chaos)
	defer stop()

	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitStatus(t, s, id, 60*time.Second)
	if st.State != "done" || st.Done != cellCount(spec) {
		t.Fatalf("chaos sweep = %+v, want done with all %d cells", st, cellCount(spec))
	}
	history, _, cancel, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	perCell := make(map[int]int)
	for _, ev := range history {
		if !ev.Terminal && ev.Err == "" {
			perCell[ev.Index]++
		}
	}
	for idx, n := range perCell {
		if n != 1 {
			t.Fatalf("cell %d recorded %d times under chaos, want exactly once", idx, n)
		}
	}
	assertJournalsEqual(t, ref, dir, "chaos drop/dup")
}

// TestChaosSeverPartition: severing one lease's link as it is granted
// partitions that worker from the lease (its heartbeats and Completes
// fail) until it abandons the cell; the lease expires, the cell requeues
// and the sweep still ends done and byte-identical. The sever fires on
// Acquire because these cells finish before their first heartbeat.
func TestChaosSeverPartition(t *testing.T) {
	spec := testSpec()
	ref := localReferenceJournal(t, spec)
	dir := t.TempDir()
	s := newTestScheduler(t, SchedulerOpts{JournalDir: dir, LeaseTTL: 200 * time.Millisecond})

	chaos := NewChaosSource(schedSource{s}, NetFault{Op: "acquire", Kind: NetSever, Times: 1})
	stop := pushDownWorkers(t, s, 2, chaos)
	defer stop()

	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitStatus(t, s, id, 60*time.Second)
	if st.State != "done" || st.Done != cellCount(spec) {
		t.Fatalf("partitioned sweep = %+v, want done with all %d cells", st, cellCount(spec))
	}
	chaos.mu.Lock()
	fired := chaos.fired[0]
	chaos.mu.Unlock()
	s.mu.Lock()
	charged := 0
	for _, n := range s.sweeps[id].attempts {
		charged += n
	}
	s.mu.Unlock()
	if fired != 1 || charged == 0 {
		t.Fatalf("sever fired %d times and %d attempts were charged, want 1 and at least 1", fired, charged)
	}
	assertJournalsEqual(t, ref, dir, "chaos sever")
}

// TestJournalBudgetUnderLoad: a daemon whose journal budget cannot even
// hold one entry still completes every cell — Admit hands back the entry
// it verified, so eviction only ever reclaims history, never a result
// still being recorded, and what remains on disk stays verifiable.
func TestJournalBudgetUnderLoad(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	s := newTestScheduler(t, SchedulerOpts{
		JournalDir:    dir,
		LeaseTTL:      time.Second,
		JournalBudget: 1, // absurdly tight: every older entry evicts
	})
	stop := pushDownWorkers(t, s, 2, nil)
	defer stop()

	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitStatus(t, s, id, 60*time.Second)
	if st.State != "done" || st.Done != cellCount(spec) {
		t.Fatalf("budgeted sweep = %+v, want done with all %d cells", st, cellCount(spec))
	}
	stats := s.Journal().Stats()
	if stats.Evictions == 0 {
		t.Fatal("no evictions under a 1-byte budget")
	}
	if _, err := s.Journal().Verify(); err != nil {
		t.Fatalf("surviving journal entries failed verification: %v", err)
	}
}

// cellFiles counts the journal entries indexed in dir.
func cellFiles(t *testing.T, dir string) int {
	t.Helper()
	return len(journalHashes(t, dir))
}

// TestInProcessJournalBudget: the daemon's in-process slots journal into
// <dir>/local and upload through Admit, so -journal-budget bounds both
// directories — the daemon's journal sees every entry and evicts.
func TestInProcessJournalBudget(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	srv, _, err := NewServer(ServerOpts{
		SchedulerOpts: SchedulerOpts{JournalDir: dir, LeaseTTL: time.Second, JournalBudget: 1},
		Workers:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := srv.Scheduler().Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitStatus(t, srv.Scheduler(), id, 60*time.Second)
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Done != cellCount(spec) {
		t.Fatalf("budgeted in-process sweep = %+v, want done with all %d cells", st, cellCount(spec))
	}
	if ev := srv.Scheduler().Journal().Stats().Evictions; ev == 0 {
		t.Fatal("daemon journal evicted nothing under a 1-byte budget")
	}
	for _, d := range []string{dir, filepath.Join(dir, "local")} {
		if n := cellFiles(t, d); n > 1 {
			t.Errorf("%s holds %d entries under a 1-byte budget, want at most 1", d, n)
		}
	}
}

// TestInProcessTornWrite: an in-process slot (workLoop over schedSource,
// what RunWorkers runs) whose sealed upload tears uploads nothing valid.
// The daemon charges exactly that one attempt, the requeued cell
// re-simulates, and the sweep still ends done and byte-identical to a
// local run.
func TestInProcessTornWrite(t *testing.T) {
	spec := testSpec()
	ref := localReferenceJournal(t, spec)
	dir := t.TempDir()
	s := newTestScheduler(t, SchedulerOpts{JournalDir: dir, LeaseTTL: time.Second})
	stop := pushDownWorkers(t, s, 2, &tearSource{CellSource: schedSource{s}})
	defer stop()
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitStatus(t, s, id, 60*time.Second)
	if st.State != "done" || st.Done != cellCount(spec) {
		t.Fatalf("torn-write sweep = %+v, want done with all %d cells", st, cellCount(spec))
	}
	s.mu.Lock()
	charged := 0
	for _, n := range s.sweeps[id].attempts {
		charged += n
	}
	s.mu.Unlock()
	if charged != 1 {
		t.Fatalf("torn private entry charged %d attempts, want 1", charged)
	}
	if rej := s.Journal().Stats().Rejected; rej != 1 {
		t.Fatalf("daemon journal rejected %d uploads, want the 1 torn one", rej)
	}
	assertJournalsEqual(t, ref, dir, "in-process torn write")
}
