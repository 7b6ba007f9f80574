// Command figures regenerates every table and figure of the paper's
// evaluation (and the extra statistics Section 4/5 quote inline):
//
//	figures -fig 1          Figure 1  (delay curves)
//	figures -fig 11a        Figure 11(a) (cycle times)
//	figures -fig 11b        Figure 11(b) (frequency & performance gains)
//	figures -fig 12         Figure 12 (energy, delay, EDP)
//	figures -fig t1         Table 1 (mechanism comparison, quantitative)
//	figures -fig breakdown  Section 5.2 stall decomposition at -mv
//	figures -fig delayed    The 13.2%-delayed-instructions statistic
//	figures -fig bp         Section 4.5 BP/RSB statistics
//	figures -fig overhead   Section 5.3 area/energy overheads
//	figures -fig edp450     Section 5.3 worked example at 450 mV
//	figures -fig nsweep     N ablation (1..4 stabilization cycles)
//	figures -fig resched    compiler-rescheduling extension (§5.2 future work)
//	figures -fig gate       IQ occupancy-gate sensitivity (ICI/AI)
//	figures -fig stable     Store-Table sizing ablation
//	figures -fig det        deterministic BP/RSB testability variant (§4.5)
//	figures -fig combined   IRAW + Faulty-Bits combination (§4.4)
//	figures -fig width      core-width ablation (widths 1/2/4 x Vcc x design)
//	figures -fig plots      ASCII renderings of Figures 1 and 11(a)
//	figures -fig all        everything above
//
// The selected figures are one grid read several ways: each figure
// declares the operating points it needs (sim.Experiment), the union is
// simulated once — every distinct (design, voltage, trace) cell a single
// time, however many figures read it — and each figure then renders from
// the settled aggregates. Figure 11(b) prints each voltage's row as soon
// as that level settles.
//
// Use -insts/-seeds to scale the workload and -csv for CSV output. -width
// re-runs any figure on a wider (or scalar) core; the width ablation table
// sweeps widths itself and ignores it. With -server the whole grid, variant
// points (forced N, IQ, STable and predictor variants, IRAW + faulty bits,
// rescheduled traces) included, runs on a sweepd daemon as one sweep of
// explicit points (sim.Grid.Spec); the output is byte-identical to a
// local run. The run flags (-workers,
// -window, -warm, -ckpt, -journal, -retries, ...) are the ones every
// simulating command shares, registered by sim.Runner.RegisterFlags.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/predictor"
	"lowvcc/internal/report"
	"lowvcc/internal/service"
	"lowvcc/internal/sim"
	"lowvcc/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// steps is every artifact in output order; -fig selects one by name.
var steps = []struct {
	name string
	fig  func(*gen) figure
}{
	{"1", static((*gen).fig1)}, {"11a", static((*gen).fig11a)}, {"11b", (*gen).fig11b},
	{"12", (*gen).fig12}, {"t1", (*gen).table1}, {"breakdown", (*gen).breakdown},
	{"delayed", (*gen).delayed}, {"bp", (*gen).bp}, {"overhead", static((*gen).overhead)},
	{"edp450", (*gen).edp450}, {"nsweep", (*gen).nsweep}, {"resched", (*gen).resched},
	{"gate", (*gen).gate}, {"stable", (*gen).stableSizing}, {"det", (*gen).determinism},
	{"combined", (*gen).combined}, {"width", (*gen).widthAblation}, {"plots", static((*gen).plots)},
}

// run parses the command line in args and writes the selected figures to
// out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	// The CLI keeps a one-second retry backoff by default; every other
	// shared run flag defaults to the zero Runner's value.
	r := &sim.Runner{RetryBackoff: time.Second}
	r.RegisterFlags(fs)
	names := make([]string, len(steps))
	for i, s := range steps {
		names[i] = s.name
	}
	fig := fs.String("fig", "all", "which artifact to regenerate: "+strings.Join(names, ", ")+" or all")
	insts := fs.Int("insts", 60000, "instructions per trace")
	seeds := fs.Int("seeds", 2, "traces per workload class")
	mv := fs.Int("mv", 575, "voltage for the breakdown statistic")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	server := fs.String("server", "", "simulate the whole grid on a sweepd daemon at this address")
	fs.Parse(args) // ExitOnError: a bad flag exits with status 2
	spec := sim.SweepSpec{InstsPerTrace: *insts, SeedsPerProfile: *seeds, WindowInsts: r.WindowInsts, WarmInsts: r.WarmInsts}
	g := &gen{r: r, out: out, csv: *csv, spec: spec, suite: sync.OnceValue(spec.Traces),
		breakdownMV: circuit.Millivolts(*mv), server: *server}
	return g.run(*fig)
}

type gen struct {
	r           *sim.Runner
	out         io.Writer
	csv         bool
	spec        sim.SweepSpec // the suite and windowing the grid's sweep runs
	breakdownMV circuit.Millivolts
	suite       func() []*trace.Trace // materialized on first use

	// server, when non-empty, runs the grid on a sweepd daemon at that
	// address; the runner's windowing rides along so the daemon's cell
	// keys match a local journal's.
	server string
}

// figure is one artifact: the operating points it needs and its render
// over their aggregates, aggs[i] for points[i]. A figure with onCell
// (Figure 11(b)) sees each of its cells as it lands, Point indexing its
// own points, and prints its rows there while the grid runs.
type figure struct {
	name   string
	idx    []int // each point's grid index
	points []sim.PointSpec
	render func(aggs []*core.Result) error
	onCell func(sim.PointUpdate) error
}

// static is the figure of a render that needs no simulation.
func static(render func(*gen) error) func(*gen) figure {
	return func(g *gen) figure {
		return figure{render: func([]*core.Result) error { return render(g) }}
	}
}

// show is the figure of an experiment whose result emit prints.
func show[T any](e sim.Experiment[T], emit func(T) error) figure {
	return figure{points: e.Points, render: func(aggs []*core.Result) error {
		res, err := e.Render(aggs)
		if err != nil {
			return err
		}
		return emit(res)
	}}
}

// emitRows prints rows as one table, cells(r) for each row r.
func emitRows[R any](g *gen, rows []R, title string, header []string, cells func(R) []any) error {
	t := report.NewTable(title, header...)
	for _, r := range rows {
		t.AddRow(cells(r)...)
	}
	return g.emit(t)
}

func (g *gen) emit(t *report.Table) error {
	if g.csv {
		return t.RenderCSV(g.out)
	}
	if err := t.Render(g.out); err != nil {
		return err
	}
	_, err := fmt.Fprintln(g.out)
	return err
}

// run renders the selected figures in order. Their points form one grid,
// collected just before the first figure that needs it.
func (g *gen) run(name string) error {
	grid := &sim.Grid{}
	var figs []figure
	for _, s := range steps {
		if name == "all" || name == s.name {
			f := s.fig(g)
			f.name, f.idx = s.name, grid.Add(f.points)
			figs = append(figs, f)
		}
	}
	if len(figs) == 0 {
		return fmt.Errorf("unknown figure %q", name)
	}
	var aggs []*core.Result
	var gridErr error
	for _, f := range figs {
		if aggs == nil && len(f.points) > 0 {
			if aggs, gridErr = g.collect(grid, figs); aggs == nil {
				return fmt.Errorf("fig %s: %w", f.name, gridErr)
			}
		}
		mine := make([]*core.Result, len(f.idx))
		for j, k := range f.idx {
			// A point that failed under -allow-partial fails every figure
			// but the streamed one, which marks its row FAIL instead.
			if mine[j] = aggs[k]; mine[j] == nil && f.onCell == nil {
				return fmt.Errorf("fig %s: %w", f.name, gridErr)
			}
		}
		if err := f.render(mine); err != nil {
			return fmt.Errorf("fig %s: %w", f.name, err)
		}
	}
	return nil
}

// collect simulates every grid point once, as one sweep: locally, or with
// -server on the daemon. The streamed figure sees its own cells as they
// land, from either source.
func (g *gen) collect(grid *sim.Grid, figs []figure) ([]*core.Result, error) {
	var onCell func(sim.PointUpdate) error
	for _, f := range figs {
		if f.onCell != nil {
			onCell = func(u sim.PointUpdate) error {
				if u.Point = slices.Index(f.idx, u.Point); u.Point < 0 {
					return nil // another figure's cell, or the terminal update
				}
				return f.onCell(u)
			}
		}
	}
	ctx := context.Background()
	if g.server == "" {
		return g.r.Collect(ctx, grid.Points, onCell)
	}
	spec, err := grid.Spec(g.spec)
	if err != nil {
		return nil, err
	}
	cl, err := service.NewClient(g.server)
	if err != nil {
		return nil, err
	}
	return cl.Collect(ctx, spec, g.r.Observe(onCell))
}

func (g *gen) fig1() error {
	return emitRows(g, sim.Figure1(), "Figure 1: delay vs Vcc (normalized to 12 FO4 at 700mV)",
		[]string{"Vcc", "12FO4", "write", "read", "write+WL", "read+WL"},
		func(r sim.Fig1Row) []any {
			return []any{r.Vcc, r.Phase, r.BitcellWrite, r.BitcellRead, r.WriteWithWL, r.ReadWithWL}
		})
}

func (g *gen) fig11a() error {
	return emitRows(g, sim.Figure11a(), "Figure 11(a): cycle time (normalized to 24 FO4 at 700mV)",
		[]string{"Vcc", "24FO4", "baseline", "IRAW"},
		func(r sim.Fig11aRow) []any { return []any{r.Vcc, r.LogicCycle, r.BaselineCycle, r.IRAWCycle} })
}

// fig11b renders Figure 11(b) progressively: its cells fold into levels,
// and each voltage's row prints the moment both designs at that level
// settle, so the figure starts appearing long before the grid completes.
func (g *gen) fig11b() figure {
	modes := []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW}
	var t *report.StreamTable
	failed := 0
	// With -allow-partial a voltage with a failed design renders as a FAIL
	// row (baseline's reason first) and the figure keeps going.
	fold := sim.NewLevelFold(modes, circuit.Levels(), len(g.suite()),
		func(v circuit.Millivolts, pts map[circuit.Mode]*sim.Point, fails map[circuit.Mode]*sim.CellError) error {
			if t == nil {
				var err error
				if t, err = report.NewStreamTable(g.out, g.csv,
					"Figure 11(b): IRAW frequency increase and performance gains",
					"Vcc", "freq-gain", "perf-gain", "ipc-base", "ipc-iraw", "stall-cost"); err != nil {
					return err
				}
			}
			failed += len(fails)
			for _, m := range modes {
				if ce := fails[m]; ce != nil {
					return t.AddRow(v, "FAIL("+ce.Reason(32)+")", "-", "-", "-", "-")
				}
			}
			// The columns: f_IRAW/f_baseline, T_baseline/T_IRAW, both IPCs
			// and IRAW's iso-voltage stall cost 1 - IPC_IRAW/IPC_baseline.
			base, iraw := pts[circuit.ModeBaseline].Agg, pts[circuit.ModeIRAW].Agg
			stall := 0.0
			if base.IPC() > 0 {
				stall = 1 - iraw.IPC()/base.IPC()
			}
			return t.AddRow(v, iraw.Plan.FreqGain, base.Time/iraw.Time, base.IPC(), iraw.IPC(), report.Pct(stall))
		})
	return figure{
		points: g.r.SweepPoints(g.suite(), modes, circuit.Levels()),
		onCell: fold.Add,
		render: func([]*core.Result) error {
			if failed > 0 {
				fmt.Fprintf(os.Stderr, "figures: %d operating point(s) failed; rows marked FAIL\n", failed)
			}
			if !g.csv {
				fmt.Fprintln(g.out)
			}
			return nil
		},
	}
}

func (g *gen) fig12() figure {
	return show(g.r.Figure12(g.suite()), func(rows []sim.Fig12Row) error {
		return emitRows(g, rows, "Figure 12: IRAW energy, delay and EDP relative to baseline",
			[]string{"Vcc", "delay", "energy", "EDP"},
			func(r sim.Fig12Row) []any { return []any{r.Vcc, r.RelDelay, r.RelEnergy, r.RelEDP} })
	})
}

func (g *gen) table1() figure {
	return show(g.r.Table1(g.suite(), 500), func(rows []sim.Table1Row) error {
		return emitRows(g, rows, "Table 1 (quantitative, at 500mV)",
			[]string{"mechanism", "all-blocks", "adapts-Vcc", "hw-overhead", "hard-to-test", "freq-gain", "perf-gain", "feasible", "caveat"},
			func(r sim.Table1Row) []any {
				return []any{r.Mode.String(), report.Bool(r.WorksForAllBlocks), report.Bool(r.AdaptsToVcc),
					r.HardwareOverhead, report.Bool(r.HardToTest),
					r.FreqGain, r.PerfGain, report.Bool(r.Feasible), r.Caveat}
			})
	})
}

func (g *gen) breakdown() figure {
	return show(g.r.Breakdown(g.suite(), g.breakdownMV), func(res *sim.BreakdownResult) error {
		t := report.NewTable(fmt.Sprintf("Section 5.2 stall decomposition at %v (paper: 8.86%% = 8.52 RF + 0.30 DL0 + 0.04 rest)", res.Vcc),
			"metric", "value")
		t.AddRow("performance drop vs baseline", report.Pct(res.PerfDrop))
		t.AddRow("RF IRAW issue-stall share", report.Pct(res.RFShare))
		t.AddRow("IQ gate share", report.Pct(res.IQShare))
		t.AddRow("DL0 share (fill-stall + replay)", report.Pct(res.DL0Share))
		t.AddRow("other blocks share", report.Pct(res.OtherShare))
		return g.emit(t)
	})
}

func (g *gen) delayed() figure {
	return show(g.r.Breakdown(g.suite(), 500), func(res *sim.BreakdownResult) error {
		t := report.NewTable("Instructions delayed by RF IRAW avoidance (paper: 13.2%)", "metric", "value")
		t.AddRow("delayed fraction", report.Pct(res.DelayedFraction))
		return g.emit(t)
	})
}

func (g *gen) bp() figure {
	return show(g.r.BPStats(g.suite(), 500), func(bp predictor.Stats) error {
		rate := float64(bp.PotentialCorruptions) / float64(max(bp.Predictions, 1))
		t := report.NewTable("Section 4.5: prediction-only blocks under IRAW (paper: 0.0017% potential extra mispredictions, no RSB conflicts)",
			"metric", "value")
		t.AddRow("BP potential corruption rate", fmt.Sprintf("%.5f%%", 100*rate))
		t.AddRow("RSB conflicts", bp.RSBConflicts)
		t.AddRow("return predictions", bp.ReturnPredictions)
		return g.emit(t)
	})
}

func (g *gen) overhead() error {
	a := sim.IRAWOverheads()
	t := report.NewTable("Section 5.3 overheads (paper: <0.03% area, <1% energy)", "metric", "value")
	t.AddRow("core SRAM bits", a.CoreSRAMBits)
	t.AddRow("IRAW extra latch bits", a.ExtraLatchBits)
	t.AddRow("area overhead", fmt.Sprintf("%.4f%%", 100*a.OverheadFraction()))
	t.AddRow("energy overhead (20x activity)", fmt.Sprintf("%.4f%%", 100*a.EnergyOverheadFraction()))
	return g.emit(t)
}

func (g *gen) edp450() figure {
	return show(g.r.EDP450(g.suite()), func(res *sim.EDP450Result) error {
		t := report.NewTable("Section 5.3 worked example at 450mV, scaled to 5J unconstrained (paper: 5/1.24, 8.50/4.74, 6.40/2.64)",
			"design", "total-J", "leakage-J")
		t.AddRow("unconstrained", report.F2(res.Unconstrained.Total()), report.F2(res.Unconstrained.Leakage))
		t.AddRow("baseline", report.F2(res.Baseline.Total()), report.F2(res.Baseline.Leakage))
		t.AddRow("IRAW", report.F2(res.IRAW.Total()), report.F2(res.IRAW.Leakage))
		return g.emit(t)
	})
}

func (g *gen) resched() figure {
	return show(g.r.CompilerResched(g.suite(), 500, 8), func(res *sim.ReschedResult) error {
		t := report.NewTable("Extension: bubble-aware compiler rescheduling at 500mV (Section 5.2 future work)",
			"metric", "original", "rescheduled")
		t.AddRow("delayed by RF IRAW", report.Pct(res.DelayedBefore), report.Pct(res.DelayedAfter))
		t.AddRow("IRAW speedup over baseline", report.F(res.PerfGainBefore), report.F(res.PerfGainAfter))
		return g.emit(t)
	})
}

func (g *gen) gate() figure {
	return show(g.r.GateSensitivity(g.suite(), 500), func(rows []sim.GateSensitivityRow) error {
		return emitRows(g, rows, "Ablation: IQ occupancy gate (threshold = ICI + AI*N) at 500mV",
			[]string{"ICI", "AI", "threshold", "IPC", "gate-share"},
			func(r sim.GateSensitivityRow) []any {
				return []any{r.ICI, r.AI, r.Threshold, r.IPC, report.Pct(r.GateShare)}
			})
	})
}

func (g *gen) stableSizing() figure {
	return show(g.r.STableSizing(g.suite(), 500), func(rows []sim.STableSizingRow) error {
		return emitRows(g, rows, "Ablation: Store-Table provisioning at 500mV",
			[]string{"stores/cycle", "entries", "IPC", "forwards", "replay-cycles"},
			func(r sim.STableSizingRow) []any {
				return []any{r.StoresPerCycle, r.Entries, r.IPC, r.Forwards, r.ReplayCycles}
			})
	})
}

func (g *gen) determinism() figure {
	return show(g.r.DeterminismMode(g.suite(), 500), func(res []*core.Result) error {
		def, det := res[0], res[1]
		t := report.NewTable("Section 4.5 testability variant: deterministic RSB", "metric", "value")
		t.AddRow("default IPC", def.IPC())
		t.AddRow("deterministic IPC", det.IPC())
		t.AddRow("default RSB conflicts", def.BP.RSBConflicts)
		t.AddRow("deterministic RSB stall cycles", det.BP.RSBStallCycles)
		return g.emit(t)
	})
}

func (g *gen) combined() figure {
	return show(g.r.CombinedFaulty(g.suite(), []circuit.Millivolts{500, 450, 400}), func(rows []sim.CombinedFaultyRow) error {
		return emitRows(g, rows, "Section 4.4 combination: IRAW + Faulty Bits (4 sigma)",
			[]string{"Vcc", "iraw-freq", "combined-freq", "iraw-perf", "combined-perf", "disabled-lines"},
			func(r sim.CombinedFaultyRow) []any {
				return []any{r.Vcc, r.IRAWFreqGain, r.CombinedFreqGain, r.IRAWPerfGain, r.CombinedPerfGain, r.DisabledLines}
			})
	})
}

// widthAblation renders the core-width ablation: both designs at
// fetch/issue widths 1, 2 and 4 across a small voltage ladder. perf-gain
// is IRAW over the same-width baseline; width-gain is the baseline's
// speedup over the scalar (width-1) baseline at the same voltage.
func (g *gen) widthAblation() figure {
	e := g.r.WidthAblation(g.suite(), []int{1, 2, 4}, []circuit.Millivolts{600, 500, 400})
	return show(e, func(rows []sim.WidthAblationRow) error {
		return emitRows(g, rows, "Ablation: fetch/issue width x Vcc x design",
			[]string{"width", "Vcc", "ipc-base", "ipc-iraw", "perf-gain", "width-gain"},
			func(r sim.WidthAblationRow) []any {
				return []any{r.Width, r.Vcc, r.IPCBase, r.IPCIRAW, r.PerfGain, r.WidthGain}
			})
	})
}

func (g *gen) plots() error {
	f1, f11 := sim.Figure1(), sim.Figure11a()
	ticks := make([]string, len(f1))
	for i, r := range f1 {
		ticks[i] = fmt.Sprintf("%d", int(r.Vcc))
	}
	// series is one column of a figure's rows, y(i) for row i.
	series := func(y func(i int) float64) []float64 {
		ys := make([]float64, len(ticks))
		for i := range ys {
			ys[i] = y(i)
		}
		return ys
	}
	p1 := &report.Plot{
		Title:  "Figure 1 (ASCII): delay vs Vcc, y clipped at 10 a.u. like the paper",
		XLabel: "Vcc (mV)", YLabel: "delay (a.u.)", XTicks: ticks, YMax: 10,
	}
	p1.AddSeries("12FO4", '*', series(func(i int) float64 { return f1[i].Phase }))
	p1.AddSeries("write+WL", 'w', series(func(i int) float64 { return f1[i].WriteWithWL }))
	p1.AddSeries("read+WL", 'r', series(func(i int) float64 { return f1[i].ReadWithWL }))
	p2 := &report.Plot{
		Title:  "Figure 11(a) (ASCII): cycle time vs Vcc",
		XLabel: "Vcc (mV)", YLabel: "cycle (a.u.)", XTicks: ticks, YMax: 45,
	}
	p2.AddSeries("24FO4", '*', series(func(i int) float64 { return f11[i].LogicCycle }))
	p2.AddSeries("baseline", 'b', series(func(i int) float64 { return f11[i].BaselineCycle }))
	p2.AddSeries("IRAW", 'i', series(func(i int) float64 { return f11[i].IRAWCycle }))
	for _, p := range []*report.Plot{p1, p2} {
		if err := p.Render(g.out); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(g.out); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) nsweep() figure {
	return show(g.r.NSweep(g.suite(), 500, 4), func(rows []sim.NSweepRow) error {
		return emitRows(g, rows, "Ablation: forced stabilization cycles N at 500mV", []string{"N", "perf-gain", "delayed"},
			func(r sim.NSweepRow) []any { return []any{r.N, r.PerfGain, report.Pct(r.Delayed)} })
	})
}
