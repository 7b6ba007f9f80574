package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"lowvcc/internal/sim"
)

// ChaosSource wraps a CellSource with deterministic network-fault
// injection (tests and the partition smoke only). Faults match by cell
// identity and protocol call — sim.FaultRule with a network kind and an
// Op of "acquire", "heartbeat" or "complete" — never by timing, so a plan
// injects the same faults for any worker count or schedule:
//
//   - FaultNetDrop fails the call with a transport error after it already
//     ran against the inner source — the lost-response case, which is the
//     one that forces retries and daemon-side idempotency. (A lost
//     request is indistinguishable from the caller's side and exercises
//     strictly less.)
//   - FaultNetDelay sleeps Delay, then proceeds normally.
//   - FaultNetDup delivers the call twice back-to-back and returns the
//     duplicate's result — the duplicated-request case the daemon's
//     Complete dedup must absorb.
//   - FaultNetSever partitions the lease: the matched call and every
//     later call on the same lease fail with a transport error without
//     reaching the inner source, until the worker abandons the cell and
//     the lease expires daemon-side.
type ChaosSource struct {
	inner CellSource
	plan  *sim.FaultPlan

	mu      sync.Mutex
	cells   map[string]Cell     // leaseID -> cell, for identity matching
	severed map[string]struct{} // leases cut off by FaultNetSever
}

// NewChaosSource wraps inner with the plan's network faults. A nil plan
// injects nothing.
func NewChaosSource(inner CellSource, plan *sim.FaultPlan) *ChaosSource {
	return &ChaosSource{
		inner:   inner,
		plan:    plan,
		cells:   make(map[string]Cell),
		severed: make(map[string]struct{}),
	}
}

// chaosError is the injected transport failure. Distinct from ErrLeaseLost
// so the worker treats it exactly like a real network error.
func chaosError(op, label string) error {
	return fmt.Errorf("service: injected network fault: %s for %s lost on the wire", op, label)
}

func (c *ChaosSource) Acquire(ctx context.Context, worker string, wait time.Duration) (*Lease, error) {
	lease, err := c.inner.Acquire(ctx, worker, wait)
	if err != nil || lease == nil {
		return lease, err
	}
	c.mu.Lock()
	c.cells[lease.ID] = lease.Cell
	c.mu.Unlock()
	if r := c.plan.TakeNet("acquire", lease.Cell.Label, lease.Cell.TraceName); r != nil {
		switch r.Kind {
		case sim.FaultNetDrop:
			// The lease was granted but the response never arrived: the
			// worker sees an error, the daemon holds an orphan lease that
			// only expiry can reclaim.
			return nil, chaosError("acquire", lease.Cell.Label)
		case sim.FaultNetDelay:
			time.Sleep(r.Delay)
		case sim.FaultNetSever:
			c.mu.Lock()
			c.severed[lease.ID] = struct{}{}
			c.mu.Unlock()
		}
	}
	return lease, nil
}

// take matches a network fault for op on leaseID's cell, and reports
// whether the lease is severed (either previously or by this match).
func (c *ChaosSource) take(op, leaseID string) (*sim.FaultRule, bool) {
	c.mu.Lock()
	cell, known := c.cells[leaseID]
	_, cut := c.severed[leaseID]
	c.mu.Unlock()
	if cut {
		return nil, true
	}
	if !known {
		return nil, false
	}
	r := c.plan.TakeNet(op, cell.Label, cell.TraceName)
	if r != nil && r.Kind == sim.FaultNetSever {
		c.mu.Lock()
		c.severed[leaseID] = struct{}{}
		c.mu.Unlock()
		return nil, true
	}
	return r, false
}

func (c *ChaosSource) Heartbeat(ctx context.Context, leaseID string) error {
	r, cut := c.take("heartbeat", leaseID)
	if cut {
		return chaosError("heartbeat", leaseID)
	}
	if r != nil {
		switch r.Kind {
		case sim.FaultNetDrop:
			return chaosError("heartbeat", leaseID)
		case sim.FaultNetDelay:
			time.Sleep(r.Delay)
		case sim.FaultNetDup:
			_ = c.inner.Heartbeat(ctx, leaseID)
		}
	}
	return c.inner.Heartbeat(ctx, leaseID)
}

func (c *ChaosSource) Complete(ctx context.Context, leaseID, worker, errMsg string, entry []byte) error {
	r, cut := c.take("complete", leaseID)
	if cut {
		return chaosError("complete", leaseID)
	}
	if r != nil {
		switch r.Kind {
		case sim.FaultNetDrop:
			// The request lands, the response is lost: the daemon records
			// the completion, the worker sees a transport error and
			// retries — the canonical double-count hazard the scheduler's
			// lease-ID dedup absorbs.
			_ = c.inner.Complete(ctx, leaseID, worker, errMsg, entry)
			return chaosError("complete", leaseID)
		case sim.FaultNetDelay:
			time.Sleep(r.Delay)
		case sim.FaultNetDup:
			_ = c.inner.Complete(ctx, leaseID, worker, errMsg, entry)
		}
	}
	return c.inner.Complete(ctx, leaseID, worker, errMsg, entry)
}
