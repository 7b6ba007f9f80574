package core

import (
	"math"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/isa"
	"lowvcc/internal/stats"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

func runWarm(t *testing.T, cfg Config, tr *trace.Trace) *Result {
	t.Helper()
	c := MustNew(cfg)
	if _, err := c.Run(tr); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	res, err := c.Run(tr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestBaselineAndIRAWIdenticalAtHighVcc(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 20000, 1)
	base := runWarm(t, DefaultConfig(700, circuit.ModeBaseline), tr)
	iraw := runWarm(t, DefaultConfig(700, circuit.ModeIRAW), tr)
	if base.Run.Cycles != iraw.Run.Cycles {
		t.Fatalf("cycle counts differ at 700mV: %d vs %d (IRAW must deactivate)", base.Run.Cycles, iraw.Run.Cycles)
	}
	if iraw.Plan.IRAWActive {
		t.Fatal("IRAW active at 700mV")
	}
}

func TestIRAWSpeedupAtLowVcc(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 20000, 1)
	for _, v := range []circuit.Millivolts{500, 450, 400} {
		base := runWarm(t, DefaultConfig(v, circuit.ModeBaseline), tr)
		iraw := runWarm(t, DefaultConfig(v, circuit.ModeIRAW), tr)
		speedup := base.Time / iraw.Time
		if speedup <= 1.2 {
			t.Errorf("%v: speedup %.2f, want substantial gain", v, speedup)
		}
		if speedup >= iraw.Plan.FreqGain {
			t.Errorf("%v: speedup %.2f exceeds frequency gain %.2f", v, speedup, iraw.Plan.FreqGain)
		}
	}
}

// TestNoCorruptionWithAvoidance is the paper's correctness claim: the
// avoidance mechanisms guarantee no read ever consumes a not-yet-stabilized
// value, for every workload class at every active voltage.
func TestNoCorruptionWithAvoidance(t *testing.T) {
	for _, p := range workload.Profiles() {
		tr := workload.Generate(p, 20000, 5)
		for _, v := range []circuit.Millivolts{575, 475, 400} {
			res := runWarm(t, DefaultConfig(v, circuit.ModeIRAW), tr)
			if res.CorruptConsumed != 0 {
				t.Errorf("%s %v: consumed %d corrupt values", p.Name, v, res.CorruptConsumed)
			}
			if res.IntegrityErrors != 0 {
				t.Errorf("%s %v: %d integrity errors", p.Name, v, res.IntegrityErrors)
			}
			if res.RFViolations != 0 {
				t.Errorf("%s %v: %d RF violations", p.Name, v, res.RFViolations)
			}
		}
	}
}

// TestUnsafeModeShowsViolations: with the same interrupted-write clock but
// the avoidance machinery disabled, corruption must appear — evidence the
// mechanisms are what keeps the safe runs clean.
func TestUnsafeModeShowsViolations(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 20000, 1)
	cfg := DefaultConfig(500, circuit.ModeIRAW)
	cfg.DisableAvoidance = true
	res := runWarm(t, cfg, tr)
	if res.RFViolations == 0 {
		t.Error("unsafe mode produced no RF violations")
	}
	if res.CorruptConsumed == 0 {
		t.Error("unsafe mode consumed no corrupt data")
	}
}

func TestBaselineHasNoIRAWStalls(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 20000, 1)
	res := runWarm(t, DefaultConfig(450, circuit.ModeBaseline), tr)
	if res.Run.IssueStalls[stats.StallRFIRAW] != 0 {
		t.Error("baseline charged RF-IRAW stalls")
	}
	if res.Run.IssueStalls[stats.StallIQGate] != 0 {
		t.Error("baseline charged IQ-gate stalls")
	}
	if res.Run.DelayedByRFIRAW != 0 {
		t.Error("baseline delayed instructions")
	}
}

func TestIRAWStallBreakdownShape(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 30000, 1)
	res := runWarm(t, DefaultConfig(575, circuit.ModeIRAW), tr)
	rf := res.Run.IssueStalls[stats.StallRFIRAW]
	dl0 := res.Run.IssueStalls[stats.StallDL0IRAW]
	if rf == 0 {
		t.Fatal("no RF IRAW stalls at 575mV")
	}
	// The paper's ordering: RF dominates DL0 dominates the rest.
	if dl0 >= rf {
		t.Errorf("DL0 stalls (%d) not below RF stalls (%d)", dl0, rf)
	}
	if res.Run.DelayedFraction() < 0.05 || res.Run.DelayedFraction() > 0.30 {
		t.Errorf("delayed fraction %.3f outside plausible band", res.Run.DelayedFraction())
	}
}

func TestDeterminism(t *testing.T) {
	tr := workload.Generate(workload.Kernel(), 15000, 3)
	a := runWarm(t, DefaultConfig(500, circuit.ModeIRAW), tr)
	b := runWarm(t, DefaultConfig(500, circuit.ModeIRAW), tr)
	if a.Run.Cycles != b.Run.Cycles || a.Run.DelayedByRFIRAW != b.Run.DelayedByRFIRAW {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d cycles/delayed",
			a.Run.Cycles, a.Run.DelayedByRFIRAW, b.Run.Cycles, b.Run.DelayedByRFIRAW)
	}
}

func TestReconfigureAcrossLevels(t *testing.T) {
	tr := workload.Generate(workload.Office(), 10000, 2)
	c := MustNew(DefaultConfig(700, circuit.ModeIRAW))
	for _, v := range []circuit.Millivolts{700, 575, 450, 400, 625, 500} {
		if err := c.Reconfigure(v); err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(tr)
		if err != nil {
			t.Fatalf("at %v: %v", v, err)
		}
		if res.CorruptConsumed != 0 {
			t.Errorf("at %v after reconfigure: %d corrupt", v, res.CorruptConsumed)
		}
		wantActive := v <= 575
		if res.Plan.IRAWActive != wantActive {
			t.Errorf("at %v: IRAWActive = %v", v, res.Plan.IRAWActive)
		}
	}
	if err := c.Reconfigure(123); err == nil {
		t.Error("invalid voltage accepted")
	}
}

func TestFencesDrainWithNOOPs(t *testing.T) {
	p := workload.Kernel()
	p.Fence = 0.05 // fence-heavy
	tr := workload.Generate(p, 10000, 4)
	res := runWarm(t, DefaultConfig(500, circuit.ModeIRAW), tr)
	if res.NOOPsInjected == 0 {
		t.Fatal("fence-heavy run injected no drain NOOPs")
	}
	if res.CorruptConsumed != 0 {
		t.Fatal("corruption with fences")
	}
}

func TestFaultyBitsMode(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 20000, 1)
	res := runWarm(t, DefaultConfig(500, circuit.ModeFaultyBits), tr)
	if res.Plan.FreqGain <= 1 {
		t.Error("faulty-bits gained no frequency")
	}
	iraw := runWarm(t, DefaultConfig(500, circuit.ModeIRAW), tr)
	if res.Plan.FreqGain >= iraw.Plan.FreqGain {
		t.Errorf("faulty-bits gain %.2f not below IRAW %.2f", res.Plan.FreqGain, iraw.Plan.FreqGain)
	}
	if res.DL0.DisabledLines == 0 && res.UL1.DisabledLines == 0 && res.IL0.DisabledLines == 0 {
		t.Error("no lines disabled in faulty-bits mode")
	}
}

func TestExtraBypassMode(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 20000, 1)
	res := runWarm(t, DefaultConfig(500, circuit.ModeExtraBypass), tr)
	if res.Plan.WritePipelineCycles < 2 {
		t.Fatalf("write pipeline = %d at 500mV", res.Plan.WritePipelineCycles)
	}
	// Write-port contention must cost structural stalls vs the IRAW run.
	if res.Run.IssueStalls[stats.StallStructural] == 0 {
		t.Error("extra-bypass produced no structural stalls")
	}
}

func TestForcedNSweep(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 15000, 1)
	prev := math.Inf(1)
	for n := 1; n <= 3; n++ {
		cfg := DefaultConfig(500, circuit.ModeIRAW)
		cfg.ForcedN = n
		res := runWarm(t, cfg, tr)
		if res.CorruptConsumed != 0 {
			t.Fatalf("N=%d: corruption", n)
		}
		ipc := res.IPC()
		if ipc >= prev+1e-9 {
			t.Errorf("IPC did not decrease with N: N=%d ipc=%.4f prev=%.4f", n, ipc, prev)
		}
		prev = ipc
	}
}

func TestDelayedFractionGrowsWithN(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 15000, 1)
	cfg1 := DefaultConfig(500, circuit.ModeIRAW)
	cfg1.ForcedN = 1
	cfg3 := DefaultConfig(500, circuit.ModeIRAW)
	cfg3.ForcedN = 3
	r1 := runWarm(t, cfg1, tr)
	r3 := runWarm(t, cfg3, tr)
	if r3.Run.DelayedFraction() <= r1.Run.DelayedFraction() {
		t.Errorf("delayed fraction not increasing with N: %.3f vs %.3f",
			r1.Run.DelayedFraction(), r3.Run.DelayedFraction())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		func() Config { c := DefaultConfig(500, circuit.ModeIRAW); c.Vcc = 123; return c }(),
		func() Config { c := DefaultConfig(500, circuit.ModeIRAW); c.Width = 0; return c }(),
		func() Config { c := DefaultConfig(500, circuit.ModeIRAW); c.MemLatencyTime = 0; return c }(),
		func() Config { c := DefaultConfig(500, circuit.ModeIRAW); c.MispredictPenalty = 0; return c }(),
		// Each of these built a core at one time and then panicked in a
		// block constructor or mid-run: New must refuse them instead.
		func() Config { c := DefaultConfig(500, circuit.ModeIRAW); c.Hierarchy.StoresPerCycle = 0; return c }(),
		func() Config { c := DefaultConfig(500, circuit.ModeIRAW); c.Hierarchy.PageWalkCycles = -14; return c }(),
		func() Config { c := DefaultConfig(500, circuit.ModeIRAW); c.Scoreboard.Regs = 4; return c }(),
		func() Config { c := DefaultConfig(500, circuit.ModeBaseline); c.Scoreboard.BypassLevels = 11; return c }(),
		func() Config {
			c := DefaultConfig(500, circuit.ModeIRAW)
			c.ForcedN, c.Hierarchy.MaxStabilize = 4, 1
			return c
		}(),
		func() Config {
			c := DefaultConfig(500, circuit.ModeIRAW)
			p := circuit.DefaultParams()
			p.MaxStabilizeCycles = 0
			c.Circuit = &p
			return c
		}(),
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestEmptyTraceRejected(t *testing.T) {
	c := MustNew(DefaultConfig(500, circuit.ModeIRAW))
	if _, err := c.Run(&trace.Trace{Name: "empty"}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestMergeResults(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 5000, 1)
	a := runWarm(t, DefaultConfig(500, circuit.ModeIRAW), tr)
	b := runWarm(t, DefaultConfig(500, circuit.ModeIRAW), tr)
	m := MergeResults([]*Result{a, b})
	if m.Run.Instructions != a.Run.Instructions+b.Run.Instructions {
		t.Fatal("instructions not summed")
	}
	if m.Time != a.Time+b.Time {
		t.Fatal("time not summed")
	}
	if MergeResults(nil).Run.Instructions != 0 {
		t.Fatal("empty merge not zero")
	}
}

func TestAreaAccounting(t *testing.T) {
	c := MustNew(DefaultConfig(500, circuit.ModeIRAW))
	extra := c.IRAWExtraBits()
	total := c.TotalSRAMBits()
	if extra <= 0 || total <= 0 {
		t.Fatalf("accounting: extra=%d total=%d", extra, total)
	}
	// The paper's claim: latch-equivalent area below 0.03%.
	frac := 4 * float64(extra) / float64(total)
	if frac > 0.0003 {
		t.Errorf("area overhead %.5f%% exceeds the paper's 0.03%%", 100*frac)
	}
}

// TestBPPotentialCorruptionsRare: Section 4.5's claim that prediction-only
// violations are negligible.
func TestBPPotentialCorruptionsRare(t *testing.T) {
	tr := workload.Generate(workload.Office(), 30000, 7) // branchy class
	res := runWarm(t, DefaultConfig(500, circuit.ModeIRAW), tr)
	if res.BP.Predictions == 0 {
		t.Fatal("no predictions")
	}
	rate := float64(res.BP.PotentialCorruptions) / float64(res.BP.Predictions)
	if rate > 0.001 {
		t.Errorf("potential corruption rate %.5f, want negligible (<0.1%%)", rate)
	}
	if res.BP.RSBConflicts != 0 {
		t.Errorf("RSB conflicts = %d; the paper found none", res.BP.RSBConflicts)
	}
}

func TestScratchRegistersStayInRange(t *testing.T) {
	// Guard the ISA contract: the workload only writes scratch registers.
	tr := workload.Generate(workload.SpecInt(), 5000, 1)
	for _, in := range tr.Insts {
		if in.Dst != isa.RegNone && int(in.Dst) >= isa.NumRegs {
			t.Fatalf("dst out of range: %v", in.Dst)
		}
	}
}

func TestCombinedIRAWFaultyBits(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 15000, 1)
	pure := runWarm(t, DefaultConfig(450, circuit.ModeIRAW), tr)
	cfg := DefaultConfig(450, circuit.ModeIRAW)
	cfg.CombineFaultyBits = true
	comb := runWarm(t, cfg, tr)
	if comb.Plan.FreqGain <= pure.Plan.FreqGain {
		t.Errorf("combined freq gain %.3f not above pure %.3f",
			comb.Plan.FreqGain, pure.Plan.FreqGain)
	}
	if comb.CorruptConsumed != 0 {
		t.Errorf("combined mode corrupt: %d", comb.CorruptConsumed)
	}
	// Fault maps must be installed (some capacity disabled).
	disabled := comb.IL0.DisabledLines + comb.DL0.DisabledLines + comb.UL1.DisabledLines
	if disabled == 0 {
		t.Error("no fault maps in combined mode")
	}
}

// TestIssueRetryBoundedByFutureDL0Hold pins the skip bound for the
// overlapping-hold corner: a mem op blocked on a busy DTLB must not be
// retried past the onset of a DL0 hold window that was registered in the
// past for a future cycle — tryIssue checks the DL0 first, so the stepped
// engine re-attributes the stall (StallOtherIRAW -> StallDL0IRAW) the
// cycle that window opens, and a skip crossing it would diverge.
func TestIssueRetryBoundedByFutureDL0Hold(t *testing.T) {
	c := MustNew(DefaultConfig(500, circuit.ModeIRAW))
	const cycle = int64(100)
	c.mem.DTLB.HoldPorts(cycle, cycle+5)
	in := &trace.Inst{Op: isa.OpLoad, Src1: isa.RegNone, Src2: isa.RegNone, Dst: isa.RegNone}

	if got := c.issueRetryAt(cycle, in); got != cycle+6 {
		t.Fatalf("clear DL0: retry = %d, want DTLB free time %d", got, cycle+6)
	}
	c.mem.DL0.HoldPorts(cycle+2, cycle+4) // future onset inside the DTLB run
	if got := c.issueRetryAt(cycle, in); got != cycle+2 {
		t.Fatalf("future DL0 hold: retry = %d, want its onset %d", got, cycle+2)
	}
	// DL0 busy right now: the retry walks only the contiguous busy run.
	if got := c.issueRetryAt(cycle+2, in); got != cycle+5 {
		t.Fatalf("DL0 busy: retry = %d, want first DL0-free cycle %d", got, cycle+5)
	}
}
