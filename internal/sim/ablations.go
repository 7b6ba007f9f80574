package sim

import (
	"fmt"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/trace"
)

// ReschedResult quantifies the compiler-assistance extension (Section 5.2
// leaves it as future work: "the compiler could help removing some of the
// register file induced stalls by scheduling instructions properly").
type ReschedResult struct {
	Vcc circuit.Millivolts
	// DelayedBefore/After: fraction of instructions delayed by RF IRAW.
	DelayedBefore, DelayedAfter float64
	// PerfGainBefore/After: IRAW speedup over baseline with the original
	// and rescheduled traces.
	PerfGainBefore, PerfGainAfter float64
}

// CompilerResched runs the IRAW core on the suite before and after the
// bubble-aware list scheduler widens producer→consumer distances: both
// designs on the original traces, then on the rescheduled ones.
func (r *Runner) CompilerResched(traces []*trace.Trace, v circuit.Millivolts, minGap int) Experiment[*ReschedResult] {
	set := TraceSet{Transform: "reschedule", MinGap: minGap}
	resched := set.Resolve(traces)
	specs := r.SweepPoints(traces, designs, []circuit.Millivolts{v})
	for _, mode := range designs {
		specs = append(specs, PointSpec{
			Label: fmt.Sprintf("resched %v %v+sched", v, mode),
			Cfg:   r.pointConfig(v, mode), Traces: resched, set: set,
		})
	}
	return Experiment[*ReschedResult]{r: r, Points: specs,
		Render: func(aggs []*core.Result) (*ReschedResult, error) {
			base, iraw, baseR, irawR := aggs[0], aggs[1], aggs[2], aggs[3]
			return &ReschedResult{
				Vcc:            v,
				DelayedBefore:  iraw.Run.DelayedFraction(),
				DelayedAfter:   irawR.Run.DelayedFraction(),
				PerfGainBefore: base.Time / iraw.Time,
				PerfGainAfter:  baseR.Time / irawR.Time,
			}, nil
		}}
}

// GateSensitivityRow reports the IQ occupancy-gate ablation at one
// configuration (Section 4.2's ICI/AI parameters).
type GateSensitivityRow struct {
	ICI, AI   int
	Threshold int
	IPC       float64
	GateShare float64
}

// GateSensitivity sweeps the IQ issue/allocation widths at v, showing how
// the occupancy threshold ICI + AI*N scales the gate's cost.
func (r *Runner) GateSensitivity(traces []*trace.Trace, v circuit.Millivolts) Experiment[[]GateSensitivityRow] {
	configs := []struct{ ici, ai int }{{2, 2}, {2, 4}, {4, 2}, {4, 4}}
	specs := make([]PointSpec, 0, len(configs))
	for _, cc := range configs {
		cfg := r.pointConfig(v, circuit.ModeIRAW)
		cfg.IQ.ICI = cc.ici
		cfg.IQ.AI = cc.ai
		cfg.Width = min(cfg.Width, cc.ici)
		specs = append(specs, PointSpec{
			Label: fmt.Sprintf("gate %v ici=%d ai=%d", v, cc.ici, cc.ai),
			Cfg:   cfg, Traces: traces,
		})
	}
	return Experiment[[]GateSensitivityRow]{r: r, Points: specs,
		Render: func(aggs []*core.Result) ([]GateSensitivityRow, error) {
			rows := make([]GateSensitivityRow, 0, len(configs))
			for i, cc := range configs {
				agg := aggs[i]
				n := agg.Plan.StabilizeCycles
				rows = append(rows, GateSensitivityRow{
					ICI: cc.ici, AI: cc.ai,
					Threshold: cc.ici + cc.ai*n,
					IPC:       agg.IPC(),
					GateShare: agg.Run.StallFraction(2), // stats.StallIQGate
				})
			}
			return rows, nil
		}}
}

// STableSizingRow reports the Store-Table sizing ablation.
type STableSizingRow struct {
	StoresPerCycle int
	Entries        int
	IPC            float64
	Forwards       uint64
	ReplayCycles   uint64
}

// STableSizing varies the table's commit width provisioning at v.
func (r *Runner) STableSizing(traces []*trace.Trace, v circuit.Millivolts) Experiment[[]STableSizingRow] {
	widths := []int{1, 2, 4}
	specs := make([]PointSpec, 0, len(widths))
	for _, spc := range widths {
		cfg := r.pointConfig(v, circuit.ModeIRAW)
		cfg.Hierarchy.StoresPerCycle = spc
		specs = append(specs, PointSpec{
			Label: fmt.Sprintf("stable %v spc=%d", v, spc),
			Cfg:   cfg, Traces: traces,
		})
	}
	return Experiment[[]STableSizingRow]{r: r, Points: specs,
		Render: func(aggs []*core.Result) ([]STableSizingRow, error) {
			rows := make([]STableSizingRow, 0, len(widths))
			for i, spc := range widths {
				agg := aggs[i]
				rows = append(rows, STableSizingRow{
					StoresPerCycle: spc,
					Entries:        spc * (specs[i].Cfg.Hierarchy.MaxStabilize + 1),
					IPC:            agg.IPC(),
					Forwards:       agg.Mem.STableForwards,
					ReplayCycles:   agg.Mem.DL0ReplayStallCycles,
				})
			}
			return rows, nil
		}}
}

// WidthAblationRow is one (width, voltage) cell of the core-width
// ablation: the baseline and IRAW designs simulated at that fetch/issue
// width.
type WidthAblationRow struct {
	Width   int
	Vcc     circuit.Millivolts
	IPCBase float64
	IPCIRAW float64
	// PerfGain is T_baseline / T_IRAW at this width and voltage — how the
	// IRAW mechanism's cost scales with issue width.
	PerfGain float64
	// WidthGain is T_baseline(widths[0]) / T_baseline(width) at this
	// voltage — the baseline speedup over the narrowest swept width
	// (1.0 for the first width).
	WidthGain float64
}

// WidthAblation sweeps the mechanism comparison across fetch/issue widths:
// every (width, voltage, design) config is built with
// core.DefaultConfigWidth, so wide cores get matching IQ issue/alloc
// bounds. The rows come in (width, voltage) order.
func (r *Runner) WidthAblation(traces []*trace.Trace, widths []int, levels []circuit.Millivolts) Experiment[[]WidthAblationRow] {
	specs := make([]PointSpec, 0, len(designs)*len(widths)*len(levels))
	for _, w := range widths {
		for _, v := range levels {
			for _, mode := range designs {
				specs = append(specs, PointSpec{
					Label:  fmt.Sprintf("width %d %v %v", w, v, mode),
					Cfg:    core.DefaultConfigWidth(v, mode, w),
					Traces: traces,
				})
			}
		}
	}
	return Experiment[[]WidthAblationRow]{r: r, Points: specs,
		Render: func(aggs []*core.Result) ([]WidthAblationRow, error) {
			rows := make([]WidthAblationRow, 0, len(widths)*len(levels))
			for wi, w := range widths {
				for li, v := range levels {
					base := aggs[2*(wi*len(levels)+li)]
					iraw := aggs[2*(wi*len(levels)+li)+1]
					ref := aggs[2*li] // widths[0] baseline at this voltage
					rows = append(rows, WidthAblationRow{
						Width: w, Vcc: v,
						IPCBase: base.IPC(), IPCIRAW: iraw.IPC(),
						PerfGain:  base.Time / iraw.Time,
						WidthGain: ref.Time / base.Time,
					})
				}
			}
			return rows, nil
		}}
}

// DeterminismMode compares the default (ignore violations) and the
// deterministic (testability) BP/RSB variants of Section 4.5 at v: its
// result is the two IRAW aggregates, default first.
func (r *Runner) DeterminismMode(traces []*trace.Trace, v circuit.Millivolts) Experiment[[]*core.Result] {
	detCfg := r.pointConfig(v, circuit.ModeIRAW)
	detCfg.Predictor.Deterministic = true
	return Experiment[[]*core.Result]{r: r, Render: aggregates,
		Points: append(r.SweepPoints(traces, designs[1:], []circuit.Millivolts{v}),
			PointSpec{Label: fmt.Sprintf("determinism %v deterministic", v), Cfg: detCfg, Traces: traces})}
}

// CombinedFaultyRow compares pure IRAW with the Section 4.4 combination
// (IRAW + tolerated faulty bits at 4 sigma) at one voltage.
type CombinedFaultyRow struct {
	Vcc              circuit.Millivolts
	IRAWFreqGain     float64
	CombinedFreqGain float64
	IRAWPerfGain     float64
	CombinedPerfGain float64
	DisabledLines    int
}

// CombinedFaulty measures the combination across the given levels: at
// each, the baseline, pure IRAW and IRAW with faulty bits.
func (r *Runner) CombinedFaulty(traces []*trace.Trace, levels []circuit.Millivolts) Experiment[[]CombinedFaultyRow] {
	specs := make([]PointSpec, 0, 3*len(levels))
	for _, v := range levels {
		comb := r.pointConfig(v, circuit.ModeIRAW)
		comb.CombineFaultyBits = true
		specs = append(append(specs, r.SweepPoints(traces, designs, []circuit.Millivolts{v})...),
			PointSpec{Label: fmt.Sprintf("combined %v iraw+faulty", v), Cfg: comb, Traces: traces})
	}
	return Experiment[[]CombinedFaultyRow]{r: r, Points: specs,
		Render: func(aggs []*core.Result) ([]CombinedFaultyRow, error) {
			rows := make([]CombinedFaultyRow, 0, len(levels))
			for i, v := range levels {
				base, iraw, comb := aggs[3*i], aggs[3*i+1], aggs[3*i+2]
				rows = append(rows, CombinedFaultyRow{
					Vcc:              v,
					IRAWFreqGain:     iraw.Plan.FreqGain,
					CombinedFreqGain: comb.Plan.FreqGain,
					IRAWPerfGain:     base.Time / iraw.Time,
					CombinedPerfGain: base.Time / comb.Time,
					DisabledLines:    comb.IL0.DisabledLines + comb.DL0.DisabledLines + comb.UL1.DisabledLines,
				})
			}
			return rows, nil
		}}
}
