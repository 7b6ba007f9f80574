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

// Spec is the grid as one sweep: base's suite sizes and windowing with one
// explicit point per grid point, in grid order, so the spec's point i is
// Points[i]. It fails for a point over traces other than base's suite; a
// transformed point (CompilerResched) is written as its declared TraceSet.
func (g *Grid) Spec(base SweepSpec) (SweepSpec, error) {
	suite := base.Traces()
	base.Modes, base.LevelsMV, base.Width, base.Points = nil, nil, 0, make([]SpecPoint, len(g.Points))
	for i, p := range g.Points {
		if len(p.Traces) != len(suite) || p.set == (TraceSet{}) && !slices.Equal(p.Traces, suite) {
			return SweepSpec{}, fmt.Errorf("sim: point %q does not run the spec's suite", p.Label)
		}
		base.Points[i] = SpecPoint{Label: p.Label, Config: p.Cfg, Traces: p.set}
	}
	return base, nil
}
