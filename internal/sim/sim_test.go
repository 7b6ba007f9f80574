package sim

import (
	"context"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
)

// tinySuite keeps harness tests fast while covering every workload class.
func tinySuite() SuiteSpec { return SuiteSpec{InstsPerTrace: 8000, SeedsPerProfile: 1} }

func TestFigure1Shape(t *testing.T) {
	rows := Figure1()
	if len(rows) != 13 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Vcc != 700 || rows[0].Phase != 1.0 {
		t.Fatalf("normalization wrong: %+v", rows[0])
	}
	// Write crosses the phase near 600 mV with WL activation.
	for _, r := range rows {
		switch {
		case r.Vcc >= 625 && r.WriteWithWL >= r.Phase:
			t.Errorf("%v: write+WL critical too early", r.Vcc)
		case r.Vcc <= 575 && r.WriteWithWL <= r.Phase:
			t.Errorf("%v: write+WL not critical", r.Vcc)
		}
		if r.ReadWithWL >= r.Phase {
			t.Errorf("%v: read path critical (8-T reads never limit)", r.Vcc)
		}
	}
}

func TestFigure11aShape(t *testing.T) {
	rows := Figure11a()
	for _, r := range rows {
		if r.IRAWCycle > r.BaselineCycle+1e-12 {
			t.Errorf("%v: IRAW cycle above baseline", r.Vcc)
		}
		if r.LogicCycle > r.IRAWCycle+1e-12 {
			t.Errorf("%v: logic cycle above IRAW cycle", r.Vcc)
		}
	}
	last := rows[len(rows)-1] // 400 mV
	if last.BaselineCycle < 30 {
		t.Errorf("baseline cycle at 400mV = %.1f, want the Figure 11a blow-up (~40)", last.BaselineCycle)
	}
}

func TestRunPointAggregates(t *testing.T) {
	traces := tinySuite().Traces()
	results, agg, err := (&Runner{}).RunPoint(context.Background(), core.DefaultConfig(500, circuit.ModeIRAW), traces)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(traces) {
		t.Fatalf("results = %d", len(results))
	}
	var insts uint64
	for _, r := range results {
		insts += r.Run.Instructions
	}
	if agg.Run.Instructions != insts {
		t.Fatal("aggregate does not sum instructions")
	}
	if agg.CorruptConsumed != 0 {
		t.Fatalf("suite consumed %d corrupt values", agg.CorruptConsumed)
	}
}

// TestHeadlineAnchors is the central reproduction check at the two voltages
// the paper quotes: frequency gains must match the paper exactly (they are
// circuit-model properties) and speedups must land in the right band.
func TestHeadlineAnchors(t *testing.T) {
	traces := tinySuite().Traces()
	for _, c := range []struct {
		v                 circuit.Millivolts
		wantFreq, minPerf float64
	}{
		{500, 1.57, 1.30},
		{400, 1.99, 1.60},
	} {
		sweep, err := (&Runner{}).Sweep(context.Background(), traces, []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW}, []circuit.Millivolts{c.v})
		if err != nil {
			t.Fatal(err)
		}
		iraw := sweep[circuit.ModeIRAW][c.v].Agg
		base := sweep[circuit.ModeBaseline][c.v].Agg
		if g := iraw.Plan.FreqGain; g < c.wantFreq-0.02 || g > c.wantFreq+0.02 {
			t.Errorf("%v: freq gain %.3f, want %.2f", c.v, g, c.wantFreq)
		}
		perf := base.Time / iraw.Time
		if perf < c.minPerf || perf >= iraw.Plan.FreqGain {
			t.Errorf("%v: perf gain %.3f outside (%.2f, freq %.2f)", c.v, perf, c.minPerf, iraw.Plan.FreqGain)
		}
	}
}

func TestBreakdownOrdering(t *testing.T) {
	traces := tinySuite().Traces()
	bd, err := (&Runner{}).Breakdown(traces, 575).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's decomposition: RF dominates, DL0 small, rest tiny.
	if bd.RFShare <= bd.DL0Share {
		t.Errorf("RF share %.4f not above DL0 share %.4f", bd.RFShare, bd.DL0Share)
	}
	if bd.PerfDrop < 0.03 || bd.PerfDrop > 0.15 {
		t.Errorf("perf drop %.3f outside the paper's band", bd.PerfDrop)
	}
	if bd.DelayedFraction < 0.08 || bd.DelayedFraction > 0.25 {
		t.Errorf("delayed fraction %.3f implausible", bd.DelayedFraction)
	}
}

func TestValidateExperiment(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 6000, SeedsPerProfile: 1}.Traces()
	res, err := (&Runner{}).Validate(traces, 500).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	safe, uns := res[0], res[1]
	if safe.CorruptConsumed != 0 || safe.IntegrityErrors != 0 {
		t.Errorf("safe run corrupt=%d integrity=%d", safe.CorruptConsumed, safe.IntegrityErrors)
	}
	if violations := uns.RFViolations + uns.CacheViolations; violations == 0 || uns.CorruptConsumed == 0 {
		t.Errorf("unsafe run clean: violations=%d corrupt=%d", violations, uns.CorruptConsumed)
	}
}

func TestIRAWOverheadsWithinPaperBounds(t *testing.T) {
	a := IRAWOverheads()
	if f := a.OverheadFraction(); f >= 0.0003 {
		t.Errorf("area overhead %.5f%% >= 0.03%%", 100*f)
	}
	if f := a.EnergyOverheadFraction(); f >= 0.01 {
		t.Errorf("energy overhead %.4f%% >= 1%%", 100*f)
	}
}

func TestNSweepMonotone(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 6000, SeedsPerProfile: 1}.Traces()
	rows, err := (&Runner{}).NSweep(traces, 500, 3).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].PerfGain > rows[i-1].PerfGain+1e-9 {
			t.Errorf("perf gain grew with N: %+v", rows)
		}
		if rows[i].Delayed < rows[i-1].Delayed-1e-9 {
			t.Errorf("delayed fraction shrank with N: %+v", rows)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 6000, SeedsPerProfile: 1}.Traces()
	rows, err := (&Runner{}).Table1(traces, 500).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var iraw, fb Table1Row
	for _, r := range rows {
		switch r.Mode {
		case circuit.ModeIRAW:
			iraw = r
		case circuit.ModeFaultyBits:
			fb = r
		}
	}
	if !iraw.WorksForAllBlocks || !iraw.Feasible {
		t.Error("IRAW row mischaracterized")
	}
	if fb.WorksForAllBlocks || fb.Feasible {
		t.Error("faulty-bits row mischaracterized")
	}
	if iraw.FreqGain <= fb.FreqGain {
		t.Errorf("IRAW freq gain %.2f not above faulty-bits %.2f", iraw.FreqGain, fb.FreqGain)
	}
	if iraw.PerfGain <= 1 {
		t.Errorf("IRAW perf gain %.2f", iraw.PerfGain)
	}
}
