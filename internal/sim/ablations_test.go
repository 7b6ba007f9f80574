package sim

import (
	"context"
	"testing"

	"lowvcc/internal/circuit"
)

func TestCompilerReschedReducesDelays(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 8000, SeedsPerProfile: 1}.Traces()
	res, err := (&Runner{}).CompilerResched(traces, 500, 8).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.DelayedAfter >= res.DelayedBefore {
		t.Errorf("rescheduling did not reduce delayed instructions: %.3f -> %.3f",
			res.DelayedBefore, res.DelayedAfter)
	}
	if res.PerfGainAfter < res.PerfGainBefore-0.01 {
		t.Errorf("rescheduling hurt the IRAW speedup: %.3f -> %.3f",
			res.PerfGainBefore, res.PerfGainAfter)
	}
}

func TestGateSensitivity(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 6000, SeedsPerProfile: 1}.Traces()
	rows, err := (&Runner{}).GateSensitivity(traces, 500).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Threshold != r.ICI+r.AI*1 { // N=1 at 500 mV
			t.Errorf("threshold %d for ICI=%d AI=%d", r.Threshold, r.ICI, r.AI)
		}
		if r.IPC <= 0 {
			t.Errorf("IPC %v", r.IPC)
		}
		// The gate's direct share stays small in every configuration
		// (the paper lumps it into the 0.04% "remaining blocks").
		if r.GateShare > 0.05 {
			t.Errorf("ICI=%d AI=%d: gate share %.3f implausibly large", r.ICI, r.AI, r.GateShare)
		}
	}
}

func TestSTableSizing(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 6000, SeedsPerProfile: 1}.Traces()
	rows, err := (&Runner{}).STableSizing(traces, 500).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Entries != r.StoresPerCycle*5 { // MaxStabilize 4 -> spc*(4+1)
			t.Errorf("entries = %d for spc %d", r.Entries, r.StoresPerCycle)
		}
		// Wider provisioning must not reduce IPC (more coverage, never
		// less; the modelled commit width stays 1 so rates barely move).
		if i > 0 && r.IPC < rows[i-1].IPC*0.99 {
			t.Errorf("IPC fell with a larger STable: %+v", rows)
		}
	}
}

func TestDeterminismMode(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 6000, SeedsPerProfile: 1}.Traces()
	res, err := (&Runner{}).DeterminismMode(traces, 500).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic mode may stall but must not corrupt predictions
	// through the RSB; its IPC cost is tiny (the paper: stalling the RSB
	// after a call "is very unlikely to delay any instruction").
	def, det := res[0], res[1]
	if det.IPC() < def.IPC()*0.98 {
		t.Errorf("deterministic mode cost too much: %.3f vs %.3f",
			det.IPC(), def.IPC())
	}
}

func TestCalibratedEnergyModel(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 6000, SeedsPerProfile: 1}.Traces()
	m, err := (&Runner{}).CalibratedEnergy(traces).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Calibrated() {
		t.Fatal("model not calibrated")
	}
	// Leakage power grows monotonically as Vcc falls.
	prev := 0.0
	for _, v := range circuit.Levels() {
		p := m.LeakagePower(v)
		if prev > 0 && p < prev {
			t.Errorf("leakage power fell from %v at %v", p, v)
		}
		prev = p
	}
}

func TestEDP450WorkedExample(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 6000, SeedsPerProfile: 1}.Traces()
	res, err := (&Runner{}).EDP450(traces).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Scaled so the unconstrained case totals 5 J (the paper's framing).
	if res.Unconstrained.Total() < 4.99 || res.Unconstrained.Total() > 5.01 {
		t.Fatalf("unconstrained total = %.2f, want 5", res.Unconstrained.Total())
	}
	// Orderings from the paper: baseline most energy, IRAW between.
	if !(res.Baseline.Total() > res.IRAW.Total() && res.IRAW.Total() > res.Unconstrained.Total()) {
		t.Errorf("energy ordering wrong: base=%.2f iraw=%.2f unc=%.2f",
			res.Baseline.Total(), res.IRAW.Total(), res.Unconstrained.Total())
	}
	// Leakage dominance grows with execution time.
	if res.Baseline.Leakage <= res.IRAW.Leakage {
		t.Errorf("baseline leakage %.2f not above IRAW %.2f", res.Baseline.Leakage, res.IRAW.Leakage)
	}
}
