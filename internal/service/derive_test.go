package service

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/journal"
	"lowvcc/internal/sim"
)

// tinyCellsSpec is the daemon benchmark's sweep shape: {baseline, iraw} x
// {700, 575, 500, 450, 400} mV x the 7-trace quick suite. IRAW at 700 mV
// is timed as baseline, so its 7 cells follow the baseline-700 ones.
func tinyCellsSpec() sim.SweepSpec {
	return sim.SweepSpec{
		InstsPerTrace:   1500,
		SeedsPerProfile: 1,
		Modes:           []string{"baseline", "iraw"},
		LevelsMV:        []int{700, 575, 500, 450, 400},
	}
}

// level700Spec is the one-level slice of it whose every IRAW cell follows.
func level700Spec() sim.SweepSpec {
	spec := tinyCellsSpec()
	spec.LevelsMV = []int{700}
	return spec
}

// followerLabel is the label of the cells tinyCellsSpec derives.
var followerLabel = sim.SweepLabel(700, circuit.ModeIRAW)

// history returns the sweep's events so far.
func history(t *testing.T, s *Scheduler, id string) []CellEvent {
	t.Helper()
	evs, _, cancel, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	return evs
}

// sweepCells returns the sweep's cells as the scheduler expanded them.
func sweepCells(s *Scheduler, id string) []Cell {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweeps[id].cells
}

// leaseAll acquires and completes leases until none is left, failing the
// test if a follower is ever leased, and returns how many it granted.
func leaseAll(t *testing.T, s *Scheduler, worker string) int {
	t.Helper()
	n := 0
	for {
		lease, err := s.Acquire(t.Context(), worker, 0)
		if err != nil {
			t.Fatal(err)
		}
		if lease == nil {
			return n
		}
		if lease.Cell.Label == followerLabel {
			t.Fatalf("follower cell %d (%s %s) was leased", lease.Cell.Index, lease.Cell.Label, lease.Cell.TraceName)
		}
		n++
		if err := s.Complete(lease.ID, worker, "", sealedEntry(t, lease)); err != nil {
			t.Fatal(err)
		}
	}
}

// assertEntriesMatchRunCell checks that the daemon journal holds, for each
// of the given cells, exactly the bytes a worker would upload for it:
// journal.Seal of Runner.RunCell of that cell alone.
func assertEntriesMatchRunCell(t *testing.T, jnl *journal.Journal, spec sim.SweepSpec, cells []Cell) {
	t.Helper()
	traces := spec.Traces()
	for _, c := range cells {
		u, err := spec.NewRunner().RunCell(context.Background(), c.Label, c.Spec.Expand()[0].Config, traces[c.TraceIdx])
		if err != nil {
			t.Fatal(err)
		}
		want, err := journal.Seal(&journal.Entry{Key: c.Key, Windows: u.Windows, Result: u.Result})
		if err != nil {
			t.Fatal(err)
		}
		got, ok := jnl.GetRaw(c.Key)
		if !ok {
			t.Fatalf("cell %d (%s %s): no journal entry", c.Index, c.Label, c.TraceName)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cell %d (%s %s): journaled bytes differ from RunCell of the cell alone", c.Index, c.Label, c.TraceName)
		}
	}
}

// TestDaemonLeasesOneCellPerEngineGroup: on the daemon benchmark's sweep
// shape, 63 of the 70 cells are leased and the 7 IRAW-700 cells are
// sealed from their baseline twins. Each derived event follows its
// leader's, names it and its worker, and every journal entry, leader or
// derived, is the bytes a worker would upload for that cell; the daemon
// picks the same leaders as sim.Runner.Stream.
func TestDaemonLeasesOneCellPerEngineGroup(t *testing.T) {
	spec := tinyCellsSpec()
	s := newTestScheduler(t, SchedulerOpts{LeaseTTL: time.Minute})
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := leaseAll(t, s, "w"); n != 63 {
		t.Fatalf("granted %d leases for %d cells, want 63", n, cellCount(spec))
	}
	st := waitStatus(t, s, id, 5*time.Second)
	if st.State != "done" || st.Done != 70 || st.Derived != 7 || st.Replayed != 0 {
		t.Fatalf("status = %+v, want done with 70 cells, 7 derived", st)
	}

	evs := history(t, s, id)
	derived := make(map[int]string) // cell index -> Derived label
	for i, ev := range evs {
		if ev.Terminal || ev.Derived == "" {
			continue
		}
		derived[ev.Index] = ev.Derived
		// Each group here is a pair, so the leader's event comes just before.
		prev := evs[i-1]
		if ev.Label != followerLabel || prev.Label != ev.Derived || prev.TraceName != ev.TraceName {
			t.Fatalf("event %d: cell %d (%s) derived from %q after cell %d (%s)", i, ev.Index, ev.Label, ev.Derived, prev.Index, prev.Label)
		}
		if ev.Worker != "w" || ev.Result == nil || ev.Err != "" {
			t.Fatalf("derived event %+v: want worker w and a result", ev)
		}
	}
	if len(derived) != 7 {
		t.Fatalf("%d derived events, want 7", len(derived))
	}

	assertEntriesMatchRunCell(t, s.Journal(), spec, sweepCells(s, id))

	// Stream over the same cells picks the same leaders.
	modes, _ := spec.CircuitModes()
	traces := spec.Traces()
	var specs []sim.PointSpec
	for _, m := range modes {
		for _, v := range spec.Levels() {
			specs = append(specs, sim.PointSpec{Label: sim.SweepLabel(v, m), Cfg: spec.PointConfig(v, m), Traces: traces})
		}
	}
	local := make(map[int]string)
	for u := range spec.NewRunner().Stream(context.Background(), specs) {
		if u.Err != nil {
			t.Fatal(u.Err)
		}
		if u.Derived != "" {
			local[u.Point*len(traces)+u.Trace] = u.Derived
		}
	}
	if len(local) != len(derived) {
		t.Fatalf("Stream derived %d cells, the daemon %d", len(local), len(derived))
	}
	for i, from := range local {
		if derived[i] != from {
			t.Fatalf("cell %d: Stream derives it from %q, the daemon from %q", i, from, derived[i])
		}
	}
}

// TestLeaderFailureFailsFollowers: a leader that exhausts MaxAttempts fails
// each of its followers under the follower's own index and label, with
// the leader's reason.
func TestLeaderFailureFailsFollowers(t *testing.T) {
	spec := level700Spec()
	s := newTestScheduler(t, SchedulerOpts{MaxAttempts: 2})
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for leases := 0; ; leases++ {
		lease, err := s.Acquire(t.Context(), "clumsy", 0)
		if err != nil {
			t.Fatal(err)
		}
		if lease == nil {
			if leases != 14 {
				t.Fatalf("granted %d leases, want 7 leaders x 2 attempts", leases)
			}
			break
		}
		if lease.Cell.Label == followerLabel {
			t.Fatalf("follower cell %d was leased", lease.Cell.Index)
		}
		if err := s.Complete(lease.ID, "clumsy", "injected failure", nil); err != nil {
			t.Fatal(err)
		}
	}
	st := waitStatus(t, s, id, 5*time.Second)
	if st.State != "failed" || st.Failed != 14 || st.Done != 0 {
		t.Fatalf("status = %+v, want failed with all 14 cells failed", st)
	}
	cells := sweepCells(s, id)
	failed := 0
	for _, ev := range history(t, s, id) {
		if ev.Terminal || ev.Label != followerLabel {
			continue
		}
		failed++
		c := cells[ev.Index]
		if ev.Label != c.Label || ev.TraceName != c.TraceName || ev.Result != nil || ev.Derived != "" ||
			!strings.Contains(ev.Err, "injected failure") || !strings.Contains(ev.Err, "giving up") {
			t.Fatalf("follower failure event %+v: want its own identity and the leader's reason", ev)
		}
	}
	if failed != 7 {
		t.Fatalf("%d follower failure events, want 7", failed)
	}
}

// TestReclaimedLeaderFollowersWait: a leader whose lease is reclaimed
// leases again; its follower stays unleased throughout and is sealed from
// the retry's upload, with the retry's worker.
func TestReclaimedLeaderFollowersWait(t *testing.T) {
	clock := newFakeClock()
	s := newTestScheduler(t, SchedulerOpts{LeaseTTL: time.Hour})
	setNow(s, clock.now)
	id, err := s.Submit(level700Spec())
	if err != nil {
		t.Fatal(err)
	}
	lost, err := s.Acquire(t.Context(), "tardy", 0)
	if err != nil || lost == nil {
		t.Fatalf("acquire: (%v, %v)", lost, err)
	}
	clock.advance(90 * time.Minute)
	if err := s.Heartbeat(lost.ID); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("late heartbeat = %v, want ErrLeaseLost", err)
	}
	if n := leaseAll(t, s, "rescue"); n != 7 {
		t.Fatalf("granted %d leases after the reclaim, want the 7 leaders", n)
	}
	st := waitStatus(t, s, id, 5*time.Second)
	if st.State != "done" || st.Done != 14 || st.Derived != 7 {
		t.Fatalf("status = %+v, want done with 7 derived", st)
	}
	follower := lost.Cell.Index + 7 // iraw cells follow the baseline ones
	for _, ev := range history(t, s, id) {
		if ev.Index == follower && (ev.Derived != lost.Cell.Label || ev.Worker != "rescue") {
			t.Fatalf("follower event %+v: want derived from %q by worker rescue", ev, lost.Cell.Label)
		}
	}
}

// TestSubmitDerivesFromJournaledTwin: when the baseline-700 cells are
// already journaled, Submit replays them and derives the IRAW-700 cells
// from those entries at once: nothing is leased, and the derived entries
// are the bytes a worker would upload.
func TestSubmitDerivesFromJournaledTwin(t *testing.T) {
	spec := level700Spec()
	base := spec
	base.Modes = []string{"baseline"}
	dir := localReferenceJournal(t, base)
	s := newTestScheduler(t, SchedulerOpts{JournalDir: dir})
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Replayed != 7 || st.Derived != 7 {
		t.Fatalf("status = %+v, want done with 7 replayed and 7 derived", st)
	}
	if lease, err := s.Acquire(t.Context(), "idle", 0); err != nil || lease != nil {
		t.Fatalf("acquire after a derive-only submit = (%v, %v), want nothing", lease, err)
	}
	for _, ev := range history(t, s, id) {
		if ev.Derived != "" && ev.Worker != "journal" {
			t.Fatalf("derived-at-submit event %+v: want worker journal", ev)
		}
	}
	assertEntriesMatchRunCell(t, s.Journal(), spec, sweepCells(s, id)[7:])
}

// TestConcurrentWorkersSealFollowers: two push-down workers race through
// the daemon benchmark's sweep shape; the daemon still leases no follower,
// derives all 7, and leaves a journal byte-identical to a local run's.
func TestConcurrentWorkersSealFollowers(t *testing.T) {
	spec := tinyCellsSpec()
	ref := localReferenceJournal(t, spec)
	dir := t.TempDir()
	s := newTestScheduler(t, SchedulerOpts{JournalDir: dir, LeaseTTL: time.Minute})
	stop := pushDownWorkers(t, s, 2, nil)
	defer stop()
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitStatus(t, s, id, 60*time.Second)
	if st.State != "done" || st.Done != 70 || st.Derived != 7 {
		t.Fatalf("status = %+v, want done with 70 cells, 7 derived", st)
	}
	for _, ev := range history(t, s, id) {
		if !ev.Terminal && (ev.Label == followerLabel) != (ev.Derived != "") {
			t.Fatalf("event %+v: only the IRAW-700 cells derive", ev)
		}
	}
	assertJournalsEqual(t, ref, dir, "concurrent workers")
}
