package sim

import (
	"cmp"
	"context"
	"slices"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/trace"
)

// runPoints is the batch collector over Stream: it drains the update
// channel, places each cell's result into its (point, trace) slot, and
// aggregates per point after the stream closes — always in (point,
// trace-index) order, so the output is bit-identical to the sequential
// path regardless of worker count, scheduling or emission order. onCell,
// when non-nil, sees every update first; its first error cancels the
// stream and is returned once the stream has drained.
//
// With AllowPartial, failed cells leave nil result slots and runPoints
// returns the completed grid alongside a *PartialError listing every
// failed cell in (point, trace) order, with Total the run's cell count.
// Points whose traces all completed still get their aggregate; a point
// with a failed cell gets a nil aggregate, since an aggregate over a
// partial trace set would silently misrepresent the point. On a terminal
// failure both slices are nil.
func (r *Runner) runPoints(ctx context.Context, specs []PointSpec, onCell func(PointUpdate) error) ([][]*core.Result, []*core.Result, error) {
	results := make([][]*core.Result, len(specs))
	total := 0
	for i := range specs {
		results[i] = make([]*core.Result, len(specs[i].Traces))
		total += len(specs[i].Traces)
	}

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var firstErr, cellErr error
	var failed []*CellError
	for u := range r.Stream(sctx, specs) {
		if onCell != nil && cellErr == nil {
			if cellErr = onCell(u); cellErr != nil {
				cancel() // stop producing; keep draining
			}
		}
		if u.Err != nil {
			if u.Point >= 0 {
				// Isolated cell failure (AllowPartial): record and keep
				// collecting.
				failed = append(failed, asCellError(u.Err))
				continue
			}
			if firstErr == nil {
				firstErr = u.Err
			}
			continue
		}
		results[u.Point][u.Trace] = u.Result
	}
	if cellErr != nil {
		return nil, nil, cellErr
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	// The terminal update can be dropped when cancellation races the drain;
	// the context still records why the stream stopped short.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	aggs := make([]*core.Result, len(specs))
	for i, res := range results {
		if !slices.Contains(res, nil) {
			aggs[i] = core.MergeResults(res)
		}
	}
	if len(failed) > 0 {
		slices.SortFunc(failed, func(a, b *CellError) int { return cmp.Or(a.Point-b.Point, a.Trace-b.Trace) })
		return results, aggs, &PartialError{Cells: failed, Total: total}
	}
	return results, aggs, nil
}

// RunPoint simulates every trace at one operating point (fresh core,
// warm-up pass, measured pass per trace — or sharded sample windows when
// windowing is enabled) across the runner's pool and returns the per-trace
// results plus their aggregate. In partial mode a *PartialError comes back
// alongside the completed per-trace results (failed slots nil, aggregate
// nil).
func (r *Runner) RunPoint(ctx context.Context, cfg core.Config, traces []*trace.Trace) ([]*core.Result, *core.Result, error) {
	results, aggs, err := r.runPoints(ctx, []PointSpec{{Label: "point", Cfg: cfg, Traces: traces}}, nil)
	if results == nil {
		return nil, nil, err
	}
	return results[0], aggs[0], err
}

// Sweep runs the suite for each voltage level in each mode on the runner's
// pool and returns the operating points indexed [mode][voltage]: runPoints
// over the sweep's (mode, level) grid. In partial mode, operating points
// with a failed cell are absent from the grid, and a *PartialError listing
// every failed cell comes back alongside the completed points.
func (r *Runner) Sweep(ctx context.Context, traces []*trace.Trace, modes []circuit.Mode, levels []circuit.Millivolts) (map[circuit.Mode]map[circuit.Millivolts]*Point, error) {
	_, aggs, err := r.runPoints(ctx, r.SweepPoints(traces, modes, levels), nil)
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
