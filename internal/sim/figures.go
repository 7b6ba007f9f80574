package sim

import (
	"fmt"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/energy"
	"lowvcc/internal/predictor"
	"lowvcc/internal/stats"
	"lowvcc/internal/trace"
)

// Fig1Row is one voltage's delays, normalized to a 12-FO4 clock phase at
// 700 mV (Figure 1's y-axis).
type Fig1Row struct {
	Vcc          circuit.Millivolts
	Phase        float64 // 12 FO4 (one clock phase)
	BitcellWrite float64
	BitcellRead  float64
	WriteWithWL  float64
	ReadWithWL   float64
}

// Figure1 evaluates the circuit model across the voltage range.
func Figure1() []Fig1Row {
	m := circuit.Default()
	rows := make([]Fig1Row, 0, len(circuit.Levels()))
	for _, v := range circuit.Levels() {
		rows = append(rows, Fig1Row{
			Vcc:          v,
			Phase:        m.Phase(v),
			BitcellWrite: m.BitcellWrite(v),
			BitcellRead:  m.BitcellRead(v),
			WriteWithWL:  m.WriteWithWL(v),
			ReadWithWL:   m.ReadWithWL(v),
		})
	}
	return rows
}

// Fig11aRow is one voltage's cycle times normalized to 24 FO4 at 700 mV
// (Figure 11(a)).
type Fig11aRow struct {
	Vcc           circuit.Millivolts
	LogicCycle    float64 // 24 FO4
	BaselineCycle float64 // write-delay constrained
	IRAWCycle     float64
}

// Figure11a evaluates the cycle-time curves.
func Figure11a() []Fig11aRow {
	m := circuit.Default()
	norm := 1 / m.LogicCycle(700)
	rows := make([]Fig11aRow, 0, len(circuit.Levels()))
	for _, v := range circuit.Levels() {
		rows = append(rows, Fig11aRow{
			Vcc:           v,
			LogicCycle:    m.LogicCycle(v) * norm,
			BaselineCycle: m.BaselineCycle(v) * norm,
			IRAWCycle:     m.PlanIRAW(v).CycleTime * norm,
		})
	}
	return rows
}

// designs are the two designs most experiments compare.
var designs = []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW}

// Fig12Row is one voltage's relative energy, delay and EDP (IRAW/baseline,
// Figure 12).
type Fig12Row struct {
	Vcc       circuit.Millivolts
	RelDelay  float64
	RelEnergy float64
	RelEDP    float64
	// Absolute values for the EXPERIMENTS record.
	BaseEnergy, IRAWEnergy energy.Breakdown
	BaseTime, IRAWTime     float64
}

// Figure12 measures the energy/delay/EDP curves with the calibrated model:
// the calibration point, then both designs at every level.
func (r *Runner) Figure12(traces []*trace.Trace) Experiment[[]Fig12Row] {
	cal := r.CalibratedEnergy(traces)
	levels := circuit.Levels()
	return Experiment[[]Fig12Row]{r: r, Points: append(cal.Points, r.SweepPoints(traces, designs, levels)...),
		Render: func(aggs []*core.Result) ([]Fig12Row, error) {
			model, err := cal.Render(aggs[:1])
			if err != nil {
				return nil, err
			}
			ovh := IRAWOverheads().EnergyOverheadFraction()
			rows := make([]Fig12Row, 0, len(levels))
			for i, v := range levels {
				base, iraw := aggs[1+i], aggs[1+len(levels)+i]
				be := model.Energy(v, base.Activity, base.Time, 0)
				ie := model.Energy(v, iraw.Activity, iraw.Time, ovh)
				row := Fig12Row{
					Vcc:        v,
					RelDelay:   iraw.Time / base.Time,
					RelEnergy:  ie.Total() / be.Total(),
					BaseEnergy: be, IRAWEnergy: ie,
					BaseTime: base.Time, IRAWTime: iraw.Time,
				}
				row.RelEDP = row.RelDelay * row.RelEnergy
				rows = append(rows, row)
			}
			return rows, nil
		}}
}

// Table1Row compares one mechanism at a voltage point (Table 1 made
// quantitative: the qualitative rows of the paper plus measured numbers).
type Table1Row struct {
	Mode circuit.Mode
	// Qualitative characteristics from the paper's Table 1.
	WorksForAllBlocks bool
	AdaptsToVcc       bool
	HardwareOverhead  string
	HardToTest        bool
	// Measured at the comparison point.
	FreqGain       float64
	PerfGain       float64
	IPC            float64
	DisabledLines  int
	ExtraLatchBits int
	Feasible       bool // whether the design works for every block physically
	Caveat         string
}

// table1Traits are Table 1's qualitative columns per design; Table1 adds
// the measured ones.
var table1Traits = map[circuit.Mode]Table1Row{
	circuit.ModeBaseline: {WorksForAllBlocks: true, AdaptsToVcc: true, HardwareOverhead: "none", Feasible: true,
		Caveat: "frequency limited by SRAM write delay"},
	// Not for all blocks: the RF and IQ need every entry. Not adaptive:
	// fault maps are per level and need a retest on every change.
	circuit.ModeFaultyBits: {HardwareOverhead: "fault maps (low but costly to maintain)", HardToTest: true,
		Caveat: "idealized: assumes the RF tolerates faulty entries, which it cannot"},
	// Not for all blocks: cache addresses are known too late. Not
	// adaptive: the bypass cost is paid at every level, in two pipelined
	// 128-bit SIMD write latches.
	circuit.ModeExtraBypass: {HardwareOverhead: "high: wide latches and wires on critical paths", ExtraLatchBits: 2 * 128,
		Caveat: "idealized: assumes cache-like blocks need no extra bypass"},
	circuit.ModeIRAW: {WorksForAllBlocks: true, AdaptsToVcc: true, HardwareOverhead: "low: scoreboard bits, STable, counters",
		Feasible: true},
}

// Table1 compares the three designs plus the baseline at v (500 mV is
// where the paper quotes its headline numbers), one row per design.
func (r *Runner) Table1(traces []*trace.Trace, v circuit.Millivolts) Experiment[[]Table1Row] {
	modes := []circuit.Mode{circuit.ModeBaseline, circuit.ModeFaultyBits, circuit.ModeExtraBypass, circuit.ModeIRAW}
	return Experiment[[]Table1Row]{r: r, Points: r.SweepPoints(traces, modes, []circuit.Millivolts{v}),
		Render: func(aggs []*core.Result) ([]Table1Row, error) {
			rows := make([]Table1Row, len(modes))
			for i, mode := range modes {
				agg, row := aggs[i], table1Traits[mode]
				row.Mode, row.FreqGain, row.PerfGain, row.IPC = mode, agg.Plan.FreqGain, aggs[0].Time/agg.Time, agg.IPC()
				switch mode {
				case circuit.ModeFaultyBits:
					row.DisabledLines = agg.IL0.DisabledLines + agg.DL0.DisabledLines + agg.UL1.DisabledLines
				case circuit.ModeIRAW:
					row.ExtraLatchBits = IRAWOverheads().ExtraLatchBits
				}
				rows[i] = row
			}
			return rows, nil
		}}
}

// BreakdownResult reports the Section 5.2 stall decomposition at one level.
type BreakdownResult struct {
	Vcc circuit.Millivolts
	// PerfDrop is 1 - IPC_IRAW/IPC_baseline at iso-voltage (the paper's
	// 8.86% at 575 mV).
	PerfDrop float64
	// Shares decompose the IRAW-attributed stall cycles.
	RFShare, IQShare, DL0Share, OtherShare float64
	// DelayedFraction is the 13.2% statistic.
	DelayedFraction float64
}

// Breakdown measures the stall decomposition at v (the paper quotes 575 mV).
func (r *Runner) Breakdown(traces []*trace.Trace, v circuit.Millivolts) Experiment[*BreakdownResult] {
	return Experiment[*BreakdownResult]{r: r, Points: r.SweepPoints(traces, designs, []circuit.Millivolts{v}),
		Render: func(aggs []*core.Result) (*BreakdownResult, error) {
			base, iraw := aggs[0], aggs[1]
			res := &BreakdownResult{
				Vcc:             v,
				DelayedFraction: iraw.Run.DelayedFraction(),
			}
			if base.IPC() > 0 {
				res.PerfDrop = 1 - iraw.IPC()/base.IPC()
			}
			cyc := float64(iraw.Run.Cycles)
			if cyc > 0 {
				sub := func(a, b uint64) float64 { return float64(a - min(a, b)) }
				res.RFShare = float64(iraw.Run.IssueStalls[stats.StallRFIRAW]) / cyc
				res.IQShare = float64(iraw.Run.IssueStalls[stats.StallIQGate]) / cyc
				// Fill-port stalls exist in the baseline too (a fill occupies the
				// ports for its write cycle); only the excess is IRAW's cost.
				res.DL0Share = (float64(iraw.Run.IssueStalls[stats.StallDL0IRAW]) +
					float64(iraw.Mem.DL0ReplayStallCycles) +
					sub(iraw.DL0.FillStallCycles, base.DL0.FillStallCycles)) / cyc
				res.OtherShare = (float64(iraw.Run.IssueStalls[stats.StallOtherIRAW]) +
					sub(iraw.IL0.FillStallCycles, base.IL0.FillStallCycles) +
					sub(iraw.UL1.FillStallCycles, base.UL1.FillStallCycles) +
					sub(iraw.ITLB.FillStallCycles, base.ITLB.FillStallCycles) +
					sub(iraw.DTLB.FillStallCycles, base.DTLB.FillStallCycles)) / cyc
			}
			return res, nil
		}}
}

// BPStats measures the Section 4.5 prediction-only statistics at v: the
// IRAW suite aggregate's predictor counters.
func (r *Runner) BPStats(traces []*trace.Trace, v circuit.Millivolts) Experiment[predictor.Stats] {
	return Experiment[predictor.Stats]{r: r, Points: r.SweepPoints(traces, designs[1:], []circuit.Millivolts{v}),
		Render: func(aggs []*core.Result) (predictor.Stats, error) { return aggs[0].BP, nil }}
}

// EDP450Result is the Section 5.3 worked example: absolute energies at
// 450 mV for the unconstrained-logic, baseline and IRAW designs, scaled so
// the unconstrained case totals 5 J as in the paper's illustration.
type EDP450Result struct {
	Unconstrained, Baseline, IRAW energy.Breakdown
}

// EDP450 reproduces the worked example. The "cycle time not constrained by
// write delay" case is approximated by the IRAW design with its stalls —
// closest to a logic-limited core — rescaled onto the paper's 5 J budget.
func (r *Runner) EDP450(traces []*trace.Trace) Experiment[*EDP450Result] {
	const v = circuit.Millivolts(450)
	cal := r.CalibratedEnergy(traces)
	return Experiment[*EDP450Result]{r: r, Points: append(cal.Points, r.SweepPoints(traces, designs, []circuit.Millivolts{v})...),
		Render: func(aggs []*core.Result) (*EDP450Result, error) {
			model, err := cal.Render(aggs[:1])
			if err != nil {
				return nil, err
			}
			base, iraw := aggs[1], aggs[2]

			// Unconstrained: logic-speed clock with no IRAW stalls. Model it
			// from the baseline run's cycle count at the logic cycle time.
			m := circuit.Default()
			uncTime := float64(base.Run.Cycles) * m.LogicCycle(v)
			unc := model.Energy(v, base.Activity, uncTime, 0)
			scale := 5.0 / unc.Total()

			ovh := IRAWOverheads().EnergyOverheadFraction()
			be := model.Energy(v, base.Activity, base.Time, 0)
			ie := model.Energy(v, iraw.Activity, iraw.Time, ovh)
			return &EDP450Result{
				Unconstrained: energy.Breakdown{Dynamic: unc.Dynamic * scale, Leakage: unc.Leakage * scale},
				Baseline:      energy.Breakdown{Dynamic: be.Dynamic * scale, Leakage: be.Leakage * scale},
				IRAW:          energy.Breakdown{Dynamic: ie.Dynamic * scale, Leakage: ie.Leakage * scale},
			}, nil
		}}
}

// NSweepRow is the stabilization-cycle ablation at one N.
type NSweepRow struct {
	N        int
	PerfGain float64
	Delayed  float64
}

// NSweep forces N = 1..maxN at v and measures the cost of wider bubbles
// ("our mechanism would work also for different technology nodes or Vcc
// ranges where the number of IRAW cycles was larger", Section 5.2) against
// the baseline at v. A point where forcing changes nothing (IRAW inactive
// at v, or n equal to v's own N) keeps the standard IRAW config, so a grid
// holds it once with the IRAW point at v.
func (r *Runner) NSweep(traces []*trace.Trace, v circuit.Millivolts, maxN int) Experiment[[]NSweepRow] {
	specs := r.SweepPoints(traces, designs[:1], []circuit.Millivolts{v})
	std := r.pointConfig(v, circuit.ModeIRAW)
	_, plan, err := core.EngineKey(std)
	for n := 1; n <= maxN; n++ {
		cfg := std
		if err != nil || (plan.IRAWActive && n != plan.StabilizeCycles) {
			cfg.ForcedN = n
		}
		specs = append(specs, PointSpec{
			Label: fmt.Sprintf("nsweep %v N=%d", v, n),
			Cfg:   cfg, Traces: traces,
		})
	}
	return Experiment[[]NSweepRow]{r: r, Points: specs,
		Render: func(aggs []*core.Result) ([]NSweepRow, error) {
			rows := make([]NSweepRow, 0, maxN)
			for n := 1; n <= maxN; n++ {
				rows = append(rows, NSweepRow{
					N:        n,
					PerfGain: aggs[0].Time / aggs[n].Time,
					Delayed:  aggs[n].Run.DelayedFraction(),
				})
			}
			return rows, nil
		}}
}

// Validate is the safety experiment at v: its result is the IRAW
// design's aggregate with avoidance on, then with it off at the same clock
// — where nothing unsafe may ever be consumed, and where corruption must
// show.
func (r *Runner) Validate(traces []*trace.Trace, v circuit.Millivolts) Experiment[[]*core.Result] {
	unsafeCfg := r.pointConfig(v, circuit.ModeIRAW)
	unsafeCfg.DisableAvoidance = true
	return Experiment[[]*core.Result]{r: r, Render: aggregates,
		Points: append(r.SweepPoints(traces, designs[1:], []circuit.Millivolts{v}),
			PointSpec{Label: fmt.Sprintf("validate %v unsafe", v), Cfg: unsafeCfg, Traces: traces})}
}
