package service

// Long-poll lease tests: an idle worker waits inside Acquire and is woken
// by the scheduler the moment a cell becomes leasable, a drain releases
// every waiter, and a source that never waits still costs at most one
// Acquire per Poll.

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// probeSource wraps a CellSource, signalling the first Acquire call and
// every granted lease.
type probeSource struct {
	CellSource
	entered chan struct{}
	granted chan *Lease
	once    atomic.Bool
}

func newProbeSource(inner CellSource) *probeSource {
	return &probeSource{CellSource: inner, entered: make(chan struct{}), granted: make(chan *Lease, 64)}
}

func (p *probeSource) Acquire(ctx context.Context, worker string, wait time.Duration) (*Lease, error) {
	if p.once.CompareAndSwap(false, true) {
		close(p.entered)
	}
	lease, err := p.CellSource.Acquire(ctx, worker, wait)
	if lease != nil {
		select {
		case p.granted <- lease:
		default:
		}
	}
	return lease, err
}

// TestLongPollSlotLeasesOnSubmit: a slot already waiting for work with a
// 5 s Poll gets a lease within 500 ms of a Submit, not at its next poll.
func TestLongPollSlotLeasesOnSubmit(t *testing.T) {
	s := newTestScheduler(t, SchedulerOpts{LeaseTTL: time.Second})
	probe := newProbeSource(schedSource{s})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		workLoop(ctx, probe, WorkerOpts{Name: "slot", Poll: 5 * time.Second})
	}()
	defer func() {
		cancel()
		<-done
	}()

	<-probe.entered
	// Let the first Acquire find the queue empty and park in its wait.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	if _, err := s.Submit(singlePointSpec()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-probe.granted:
		if d := time.Since(start); d > 500*time.Millisecond {
			t.Fatalf("waiting slot leased %v after Submit, want within 500ms", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiting slot got no lease within 2s of Submit")
	}
}

// TestLongPollReclaimWakesWaiter: a lease reclaimed after its holder
// stops heartbeating wakes an Acquire already waiting for work.
func TestLongPollReclaimWakesWaiter(t *testing.T) {
	s := newTestScheduler(t, SchedulerOpts{LeaseTTL: 200 * time.Millisecond})
	if _, err := s.Submit(singlePointSpec()); err != nil {
		t.Fatal(err)
	}
	var doomed []*Lease
	for {
		l, err := s.Acquire(t.Context(), "doomed", 0)
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			break
		}
		doomed = append(doomed, l)
	}
	if len(doomed) == 0 {
		t.Fatal("no cells to lease")
	}

	start := time.Now()
	got, err := s.Acquire(t.Context(), "rescue", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatalf("waiter got no lease after %v; the reclaimed cell never woke it", time.Since(start))
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("waiter leased the reclaimed cell after %v, want well under the 5s wait", d)
	}
	if got.Cell.Key != doomed[0].Cell.Key {
		t.Fatalf("waiter leased %s, want the first reclaimed cell %s", got.Cell.Key, doomed[0].Cell.Key)
	}
}

// TestDrainReleasesWaitingAcquires: Drain answers every waiting Acquire —
// over HTTP and in-process — within 100 ms, with no lease, even while it
// still waits for a lease in flight.
func TestDrainReleasesWaitingAcquires(t *testing.T) {
	srv, base := newTestDaemon(t, ServerOpts{Workers: -1})
	s := srv.Scheduler()
	if _, err := s.Submit(singlePointSpec()); err != nil {
		t.Fatal(err)
	}
	var held []*Lease
	for {
		l, err := s.Acquire(t.Context(), "holder", 0)
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			break
		}
		held = append(held, l)
	}
	src, err := newHTTPSource(base)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]CellSource{"http": src, "in-process": schedSource{s}}
	type result struct {
		name  string
		lease *Lease
		at    time.Time
	}
	results := make(chan result, len(sources))
	for name, cs := range sources {
		go func() {
			l, _ := cs.Acquire(context.Background(), name, 5*time.Second)
			results <- result{name, l, time.Now()}
		}()
	}
	// Let both Acquires reach the scheduler and park in their waits.
	time.Sleep(200 * time.Millisecond)
	select {
	case r := <-results:
		t.Fatalf("%s Acquire returned before the drain instead of waiting for work", r.name)
	default:
	}
	start := time.Now()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	for range sources {
		select {
		case r := <-results:
			if r.lease != nil {
				t.Errorf("%s Acquire got lease %s during drain", r.name, r.lease.ID)
			}
			if d := r.at.Sub(start); d > 100*time.Millisecond {
				t.Errorf("%s Acquire returned %v after Drain began, want within 100ms", r.name, d)
			}
		case <-time.After(6 * time.Second):
			t.Fatal("a waiting Acquire outlived the drain")
		}
	}
	for _, l := range held {
		if err := s.Complete(l.ID, "holder", "abandoned for the drain", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
}

// countSource answers every Acquire at once with no work, ignoring the
// wait — an older daemon, or one that is unreachable.
type countSource struct {
	CellSource
	calls atomic.Int64
}

func (c *countSource) Acquire(context.Context, string, time.Duration) (*Lease, error) {
	c.calls.Add(1)
	return nil, nil
}

// TestZeroWaitSourceCostsOneAcquirePerPoll: a source that never waits
// cannot make the worker loop spin — it sleeps out the rest of Poll after
// each empty Acquire.
func TestZeroWaitSourceCostsOneAcquirePerPoll(t *testing.T) {
	const poll = 50 * time.Millisecond
	inner := &countSource{}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	workLoop(ctx, inner, WorkerOpts{Name: "idle", Poll: poll})
	elapsed := time.Since(start)
	calls := inner.calls.Load()
	if max := int64(elapsed/poll) + 1; calls > max {
		t.Fatalf("%d Acquires in %v at Poll %v, want at most %d", calls, elapsed, poll, max)
	}
	if calls < 2 {
		t.Fatalf("%d Acquires in %v: the idle worker stopped polling", calls, elapsed)
	}
}
