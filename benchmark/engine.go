package main

import (
	"context"
	"fmt"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

// enginePoint is one operating point of an engine workload.
type enginePoint struct {
	label string
	cfg   core.Config
}

// engineBench drives core.Core directly, one goroutine, one reused core per
// operating point. A cell is Reset, an untimed warm Run and a measured Run:
// what sim.Runner does for an unsharded cell.
type engineBench struct {
	points []enginePoint
	gen    func() []*trace.Trace
	// paper reports whether the points carry the paper's anchors.
	paper bool

	traces []*trace.Trace
	cores  []*core.Core
}

// traceSeed derives the generator seed of a workload's i-th trace.
func traceSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) }

func newEngineSuite(o *options) *engineBench {
	n := 50_000
	if o.quick {
		n = 4_000
	}
	return &engineBench{
		points: []enginePoint{
			{"baseline-500mV", core.DefaultConfig(500, circuit.ModeBaseline)},
			{"iraw-500mV", core.DefaultConfig(500, circuit.ModeIRAW)},
			{"baseline-400mV", core.DefaultConfig(400, circuit.ModeBaseline)},
			{"iraw-400mV", core.DefaultConfig(400, circuit.ModeIRAW)},
			{"iraw-575mV", core.DefaultConfig(575, circuit.ModeIRAW)},
			{"iraw-500mV-w4", core.DefaultConfigWidth(500, circuit.ModeIRAW, 4)},
		},
		gen: func() []*trace.Trace {
			var trs []*trace.Trace
			for i, p := range workload.Profiles() {
				trs = append(trs, workload.Generate(p, n, traceSeed(o.seed, i)))
			}
			return trs
		},
		paper: true,
	}
}

func newEngineMemBound(o *options) *engineBench {
	n := 150_000
	if o.quick {
		n = 10_000
	}
	return &engineBench{
		points: []enginePoint{
			{"baseline-500mV", core.DefaultConfig(500, circuit.ModeBaseline)},
			{"iraw-500mV", core.DefaultConfig(500, circuit.ModeIRAW)},
		},
		gen: func() []*trace.Trace {
			return []*trace.Trace{
				workload.Generate(workload.MemBound(), n, traceSeed(o.seed, 0)),
				workload.Generate(workload.MemBound(), n, traceSeed(o.seed, 1)),
			}
		},
	}
}

// setup generates the traces, builds one core per point and runs each
// core once over the first trace.
func (e *engineBench) setup() error {
	e.traces = e.gen()
	e.cores = make([]*core.Core, len(e.points))
	for i, p := range e.points {
		c, err := core.New(p.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", p.label, err)
		}
		if _, err := c.Run(e.traces[0]); err != nil {
			return fmt.Errorf("%s: warm pass: %w", p.label, err)
		}
		e.cores[i] = c
	}
	return nil
}

func (e *engineBench) round(ctx context.Context, _ int, rec *recorder) (roundOut, error) {
	return e.runCells(ctx, e.cores, rec)
}

// runCells runs every (point, trace) cell in point-major order. The single
// loop submits each cell when it reaches it, so a cell's latency is its
// own run time.
func (e *engineBench) runCells(ctx context.Context, cores []*core.Core, rec *recorder) (roundOut, error) {
	var out roundOut
	g := group{start: time.Now()}
	for pi, p := range e.points {
		for _, tr := range e.traces {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			c0 := time.Now()
			res, err := runCell(cores[pi], tr, rec, p.label)
			if err != nil {
				return out, fmt.Errorf("%s %s: %w", p.label, tr.Name, err)
			}
			g.lat = append(g.lat, ms(time.Since(c0)))
			g.insts += float64(len(tr.Insts))
			out.results = append(out.results, res)
		}
	}
	g.wall = time.Since(g.start)
	out.groups = []group{g}
	return out, nil
}

// runCell is one cell with a span around each call into the core.
func runCell(c *core.Core, tr *trace.Trace, rec *recorder, label string) (*core.Result, error) {
	var cell string
	if rec != nil {
		cell = label + "/" + tr.Name
	}
	sp := rec.start("cell", 0, cell)
	defer rec.end(sp)
	if err := c.Reset(); err != nil {
		return nil, err
	}
	w := rec.start("core.run.warm", sp, cell)
	_, err := c.Run(tr)
	rec.end(w)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	m := rec.start("core.run", sp, cell)
	res, err := c.Run(tr)
	rec.end(m)
	return res, err
}

// reference reruns a whole round with the simulator's fast paths disabled
// (core.Config.DisableFastPaths), the engine the equivalence fuzzes hold
// the fast paths to.
func (e *engineBench) reference(ctx context.Context, _ bool) ([]*core.Result, int, error) {
	cores := make([]*core.Core, len(e.points))
	for i, p := range e.points {
		cfg := p.cfg
		cfg.DisableFastPaths = true
		c, err := core.New(cfg)
		if err != nil {
			return nil, 0, err
		}
		cores[i] = c
	}
	out, err := e.runCells(ctx, cores, nil)
	return out.results, 0, err
}

func (e *engineBench) layerMetrics(_ context.Context, first []*core.Result, _ *recorder, m map[string]float64) error {
	if !e.paper {
		return nil
	}
	byLabel := make(map[string][]*core.Result)
	for i, res := range first {
		p := e.points[i/len(e.traces)]
		byLabel[p.label] = append(byLabel[p.label], res)
	}
	m["model.paper_err_pct"] = paperErrPct(func(mode circuit.Mode, v circuit.Millivolts) *core.Result {
		return core.MergeResults(byLabel[fmt.Sprintf("%v-%v", mode, v)])
	})
	return nil
}
