package service

// CellSource wrappers that inject faults for the robustness and crash
// tests. They sit where the worker loop meets the lease protocol, the one
// seam every worker uses (workLoop over schedSource in-process, over
// httpSource in a sweepd -worker process). Followers are never leased, so
// a wrapper that targets one cell targets a group's leader.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// NetKind selects what an injected network fault does.
type NetKind uint8

const (
	// NetDrop runs the call against the inner source, then fails it with
	// a transport error: the response is lost on the wire. A dropped
	// Acquire leaves the daemon an orphan lease that only expiry
	// reclaims; a dropped Complete forces the retry that the daemon's
	// lease-ID dedup must absorb.
	NetDrop NetKind = iota + 1
	// NetDup delivers a Heartbeat or Complete twice back to back and
	// returns the duplicate's result, exercising daemon-side idempotency.
	NetDup
	// NetSever partitions the lease: the matched call (after an Acquire,
	// the calls that follow it) and every later call on that lease fail
	// without reaching the inner source, until the worker abandons the
	// cell and the lease expires daemon-side.
	NetSever
)

// NetFault injects Kind on calls of Op ("acquire", "heartbeat" or
// "complete"), at most Times times (0 = unlimited). Faults match by
// protocol call, never by timing.
type NetFault struct {
	Op    string
	Kind  NetKind
	Times int
}

// ChaosSource wraps a CellSource with deterministic network faults. It
// is safe for concurrent use by several worker loops, which then share
// each fault's budget.
type ChaosSource struct {
	inner CellSource

	mu      sync.Mutex
	faults  []NetFault
	fired   []int
	severed map[string]bool // leases cut off by NetSever
}

// NewChaosSource wraps inner with faults.
func NewChaosSource(inner CellSource, faults ...NetFault) *ChaosSource {
	return &ChaosSource{inner: inner, faults: faults, fired: make([]int, len(faults)), severed: make(map[string]bool)}
}

// chaosError is the injected transport failure. Distinct from ErrLeaseLost
// so the worker treats it exactly like a real network error.
func chaosError(op, leaseID string) error {
	return fmt.Errorf("service: injected network fault: %s for %s lost on the wire", op, leaseID)
}

// take matches a fault for op on leaseID, consuming one firing, and
// reports whether the lease is severed (before or by this match).
func (c *ChaosSource) take(op, leaseID string) (kind NetKind, cut bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.severed[leaseID] {
		return 0, true
	}
	for i, f := range c.faults {
		if f.Op != op || f.Times > 0 && c.fired[i] >= f.Times {
			continue
		}
		c.fired[i]++
		if f.Kind == NetSever {
			c.severed[leaseID] = true
		}
		return f.Kind, false
	}
	return 0, false
}

func (c *ChaosSource) Acquire(ctx context.Context, worker string, wait time.Duration) (*Lease, error) {
	lease, err := c.inner.Acquire(ctx, worker, wait)
	if err != nil || lease == nil {
		return lease, err
	}
	if kind, _ := c.take("acquire", lease.ID); kind == NetDrop {
		return nil, chaosError("acquire", lease.ID)
	}
	return lease, nil
}

// call runs one lease call through the faults matched for op.
func (c *ChaosSource) call(op, leaseID string, f func() error) error {
	kind, cut := c.take(op, leaseID)
	switch {
	case cut || kind == NetSever:
		return chaosError(op, leaseID)
	case kind == NetDrop:
		_ = f()
		return chaosError(op, leaseID)
	case kind == NetDup:
		_ = f()
	}
	return f()
}

func (c *ChaosSource) Heartbeat(ctx context.Context, leaseID string) error {
	return c.call("heartbeat", leaseID, func() error { return c.inner.Heartbeat(ctx, leaseID) })
}

func (c *ChaosSource) Complete(ctx context.Context, leaseID, worker, errMsg string, entry []byte) error {
	return c.call("complete", leaseID, func() error { return c.inner.Complete(ctx, leaseID, worker, errMsg, entry) })
}

// tearSource cuts the first successful upload at half its length, where
// journal.PutTruncated(e, -1) cuts a torn write, and forwards it: the
// daemon must reject it, charge the attempt and requeue the cell.
type tearSource struct {
	CellSource
	torn atomic.Bool
}

func (s *tearSource) Complete(ctx context.Context, leaseID, worker, errMsg string, entry []byte) error {
	if errMsg == "" && s.torn.CompareAndSwap(false, true) {
		entry = entry[:len(entry)/2]
	}
	return s.CellSource.Complete(ctx, leaseID, worker, errMsg, entry)
}

// exitSource kills the process with status 3 when the lease of the cell
// (label, traceName) reaches Complete, before forwarding it, so the
// daemon sees that lease held by a dead worker. One worker loop drives
// it, so Acquire and Complete never run concurrently.
type exitSource struct {
	CellSource
	label, traceName string
	victim           string // the target cell's lease ID, once acquired
}

func (s *exitSource) Acquire(ctx context.Context, worker string, wait time.Duration) (*Lease, error) {
	lease, err := s.CellSource.Acquire(ctx, worker, wait)
	if lease != nil && lease.Cell.Label == s.label && lease.Cell.TraceName == s.traceName {
		s.victim = lease.ID
	}
	return lease, err
}

func (s *exitSource) Complete(ctx context.Context, leaseID, worker, errMsg string, entry []byte) error {
	if leaseID == s.victim {
		os.Exit(3)
	}
	return s.CellSource.Complete(ctx, leaseID, worker, errMsg, entry)
}
