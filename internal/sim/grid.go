package sim

import (
	"context"
	"fmt"
	"slices"

	"lowvcc/internal/core"
)

// An Experiment is one table or figure of the evaluation split in two: the
// operating points it needs and a pure render over their settled
// aggregates. Run simulates the points on the runner that declared them;
// cmd/figures instead adds every selected experiment's points to one Grid,
// simulates each distinct cell once and renders each experiment from the
// grid's aggregates.
type Experiment[T any] struct {
	Points []PointSpec
	// Render builds the result from aggs, where aggs[i] is the aggregate
	// of Points[i].
	Render func(aggs []*core.Result) (T, error)
	r      *Runner
}

// Run simulates the experiment's points and renders the result.
func (e Experiment[T]) Run(ctx context.Context) (T, error) {
	aggs, err := e.r.Collect(ctx, e.Points, nil)
	if err != nil {
		return *new(T), err
	}
	return e.Render(aggs)
}

// aggregates is the render of an experiment whose result is its points'
// aggregates themselves.
func aggregates(aggs []*core.Result) ([]*core.Result, error) { return aggs, nil }

// Collect simulates specs and returns each point's aggregate, aggs[i] for
// specs[i]; in partial mode a failed point's aggregate is nil and a
// *PartialError comes back alongside. onCell, when non-nil, sees every
// update as it lands, and an error from it cancels the run.
func (r *Runner) Collect(ctx context.Context, specs []PointSpec, onCell func(PointUpdate) error) ([]*core.Result, error) {
	_, aggs, err := r.runPoints(ctx, specs, onCell)
	return aggs, err
}

// Grid is the union of several experiments' points: each distinct (config,
// trace list) point is held once however many experiments declare it, so
// collecting the grid simulates each distinct cell once.
type Grid struct {
	Points []PointSpec
	index  map[gridKey]int
}

// gridKey identifies a point by its configuration and the identity of each
// of its traces (fmt prints a slice's pointers as addresses).
type gridKey struct {
	cfg    core.Config
	traces string
}

func keyOf(p PointSpec) gridKey { return gridKey{p.Cfg, fmt.Sprint(p.Traces)} }

// Add merges points into the grid and returns each one's grid index.
func (g *Grid) Add(points []PointSpec) []int {
	if g.index == nil {
		g.index = make(map[gridKey]int)
	}
	idx := make([]int, len(points))
	for i, p := range points {
		j, ok := g.index[keyOf(p)]
		if !ok {
			j = len(g.Points)
			g.index[keyOf(p)] = j
			g.Points = append(g.Points, p)
		}
		idx[i] = j
	}
	return idx
}

// SweepSpecs splits the grid for a sweep daemon. The standard points — the
// suite of base (which sets the sizes and windowing) under the default
// configuration of their own voltage, design and width — become the fewest
// SweepSpecs that simulate nothing else: one per (width, level set),
// carrying every mode that needs exactly that set. cells[s] holds the grid
// index of each of specs[s]'s points in its (mode, level) order, and local
// lists the remaining (variant) points, which the caller simulates itself.
func (g *Grid) SweepSpecs(base SweepSpec) (specs []SweepSpec, cells [][]int, local []int) {
	traces := base.Traces()
	// Each (width, mode) design is keyed by a Config holding just those
	// two fields; order lists the designs in grid order.
	var order []core.Config
	levels := make(map[core.Config][]int)
	for i, p := range g.Points {
		c := p.Cfg
		if c != core.DefaultConfigWidth(c.Vcc, c.Mode, c.Width) || !slices.Equal(p.Traces, traces) {
			local = append(local, i)
			continue
		}
		d := core.Config{Mode: c.Mode, Width: c.Width}
		if levels[d] == nil {
			order = append(order, d)
		}
		levels[d] = append(levels[d], int(c.Vcc))
	}
	group := make(map[string]int)
	for _, d := range order {
		mvs := levels[d]
		slices.SortFunc(mvs, func(a, b int) int { return b - a }) // sweep order: highest first
		s, ok := group[fmt.Sprint(d.Width, mvs)]
		if !ok {
			s = len(specs)
			group[fmt.Sprint(d.Width, mvs)] = s
			specs = append(specs, base)
			specs[s].Modes, specs[s].LevelsMV, specs[s].Width = nil, mvs, d.Width
		}
		specs[s].Modes = append(specs[s].Modes, d.Mode.String())
	}
	cells = make([][]int, len(specs))
	for s, spec := range specs {
		modes, _ := spec.CircuitModes()
		for _, m := range modes {
			for _, v := range spec.Levels() {
				cells[s] = append(cells[s], g.index[keyOf(PointSpec{Cfg: spec.PointConfig(v, m), Traces: traces})])
			}
		}
	}
	return specs, cells, local
}
