package sim

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/trace"
)

// Collector places one sweep's cell updates into (point, trace) slots and
// aggregates each point in trace order once it has settled, whatever the
// arrival order: the one collection behind Runner.Collect (over Stream)
// and the sweep daemon's client (over cell events). Not safe for
// concurrent use.
type Collector struct {
	cells [][]*PointUpdate // [point][trace], nil until landed
}

// NewCollector starts a collection over len(traces) points, point i
// running traces[i] traces.
func NewCollector(traces []int) *Collector {
	c := &Collector{cells: make([][]*PointUpdate, len(traces))}
	for i, n := range traces {
		c.cells[i] = make([]*PointUpdate, n)
	}
	return c
}

// Add places one cell's update: its result, or its isolated failure. It
// rejects a cell out of range, one that lands twice and one with neither a
// result nor an error.
func (c *Collector) Add(u PointUpdate) error {
	switch {
	case u.Point < 0 || u.Point >= len(c.cells) || u.Trace < 0 || u.Trace >= len(c.cells[u.Point]):
		return fmt.Errorf("sim: cell (point %d, trace %d) outside the %d-point sweep", u.Point, u.Trace, len(c.cells))
	case c.cells[u.Point][u.Trace] != nil:
		return fmt.Errorf("sim: cell (point %d, trace %d) landed twice", u.Point, u.Trace)
	case u.Err == nil && u.Result == nil:
		return fmt.Errorf("sim: cell (point %d, trace %d) has neither a result nor an error", u.Point, u.Trace)
	}
	c.cells[u.Point][u.Trace] = &u
	return nil
}

// point reports whether point i has settled (every trace landed) and then
// its aggregate, or, if any trace failed, nil and its failures in trace
// order.
func (c *Collector) point(i int) (agg *core.Result, failed []*CellError, settled bool) {
	if slices.Contains(c.cells[i], nil) {
		return nil, nil, false
	}
	results := make([]*core.Result, len(c.cells[i]))
	for t, u := range c.cells[i] {
		if results[t] = u.Result; u.Err != nil {
			failed = append(failed, asCellError(u.Err))
		}
	}
	if failed != nil {
		return nil, failed, true
	}
	return core.MergeResults(results), nil, true
}

// Result returns each point's aggregate. A point with a failed cell gets a
// nil aggregate, since an aggregate over a partial trace set would
// silently misrepresent the point, and a *PartialError lists every failed
// cell in (point, trace) order. It fails if some cell never landed.
func (c *Collector) Result() ([]*core.Result, error) {
	aggs := make([]*core.Result, len(c.cells))
	pe := &PartialError{}
	for i := range c.cells {
		agg, failed, settled := c.point(i)
		if !settled {
			return nil, fmt.Errorf("sim: sweep ended before point %d's cells all landed", i)
		}
		aggs[i], pe.Cells, pe.Total = agg, append(pe.Cells, failed...), pe.Total+len(c.cells[i])
	}
	if len(pe.Cells) > 0 {
		return aggs, pe
	}
	return aggs, nil
}

// Collect simulates specs through Stream and returns each point's
// aggregate from a Collector, aggs[i] for specs[i]. onCell, when non-nil,
// sees every update first; its first error cancels the stream and is
// returned once the stream has drained. With AllowPartial a failed point's
// aggregate is nil and a *PartialError comes back alongside; on a
// terminal failure aggs is nil.
func (r *Runner) Collect(ctx context.Context, specs []PointSpec, onCell func(PointUpdate) error) ([]*core.Result, error) {
	traces := make([]int, len(specs))
	for i := range specs {
		traces[i] = len(specs[i].Traces)
	}
	col := NewCollector(traces)

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var firstErr, cellErr error
	for u := range r.Stream(sctx, specs) {
		if onCell != nil && cellErr == nil {
			if cellErr = onCell(u); cellErr != nil {
				cancel() // stop producing; keep draining
			}
		}
		if u.Point < 0 {
			firstErr = u.Err // the terminal update, the stream's last
		} else {
			col.Add(u) // Stream emits each cell once, with a result or its isolated failure
		}
	}
	// The terminal update can be dropped when cancellation races the drain;
	// the context still records why the stream stopped short.
	if err := cmp.Or(cellErr, firstErr, ctx.Err()); err != nil {
		return nil, err
	}
	return col.Result()
}

// Observe returns onCell preceded by the runner's Progress callback, for a
// collection that does not run on the runner's own stream (the sweep
// daemon's, through service.Client.Collect), so -progress shows its cells
// too. With no Progress it returns onCell as is.
func (r *Runner) Observe(onCell func(PointUpdate) error) func(PointUpdate) error {
	if r.Progress == nil {
		return onCell
	}
	return func(u PointUpdate) error {
		r.Progress(u)
		if onCell == nil {
			return nil
		}
		return onCell(u)
	}
}

// RunPoint simulates every trace at one operating point (fresh core,
// warm-up pass, measured pass per trace — or sharded sample windows when
// windowing is enabled) across the runner's pool and returns the per-trace
// results plus their aggregate. In partial mode a *PartialError comes back
// alongside the completed per-trace results (failed slots nil, aggregate
// nil).
func (r *Runner) RunPoint(ctx context.Context, cfg core.Config, traces []*trace.Trace) ([]*core.Result, *core.Result, error) {
	results := make([]*core.Result, len(traces))
	aggs, err := r.Collect(ctx, []PointSpec{{Label: "point", Cfg: cfg, Traces: traces}}, func(u PointUpdate) error {
		if u.Point >= 0 {
			results[u.Trace] = u.Result
		}
		return nil
	})
	if aggs == nil {
		return nil, nil, err
	}
	return results, aggs[0], err
}

// Sweep runs the suite for each voltage level in each mode on the runner's
// pool and returns the operating points indexed [mode][voltage]: Collect
// over the sweep's (mode, level) grid. In partial mode, operating points
// with a failed cell are absent from the grid, and a *PartialError listing
// every failed cell comes back alongside the completed points.
func (r *Runner) Sweep(ctx context.Context, traces []*trace.Trace, modes []circuit.Mode, levels []circuit.Millivolts) (map[circuit.Mode]map[circuit.Millivolts]*Point, error) {
	aggs, err := r.Collect(ctx, r.SweepPoints(traces, modes, levels), nil)
	if aggs == nil {
		return nil, err
	}
	out := make(map[circuit.Mode]map[circuit.Millivolts]*Point, len(modes))
	for mi, mode := range modes {
		out[mode] = make(map[circuit.Millivolts]*Point, len(levels))
		for li, v := range levels {
			if agg := aggs[mi*len(levels)+li]; agg != nil {
				out[mode][v] = &Point{Vcc: v, Mode: mode, Agg: agg}
			}
		}
	}
	return out, err
}
