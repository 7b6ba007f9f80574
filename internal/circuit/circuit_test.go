package circuit

import (
	"math"
	"testing"
)

func almost(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

func TestPhaseNormalization(t *testing.T) {
	m := Default()
	if p := m.Phase(700); !almost(p, 1.0, 1e-12) {
		t.Fatalf("Phase(700) = %v, want 1.0 (Figure 1 normalization)", p)
	}
	if c := m.LogicCycle(700); !almost(c, 2.0, 1e-12) {
		t.Fatalf("LogicCycle(700) = %v, want 2.0", c)
	}
}

func TestLevels(t *testing.T) {
	ls := Levels()
	if len(ls) != 13 {
		t.Fatalf("got %d levels, want 13 (700..400 step 25)", len(ls))
	}
	if ls[0] != 700 || ls[len(ls)-1] != 400 {
		t.Fatalf("levels range wrong: %v", ls)
	}
	for i := 1; i < len(ls); i++ {
		if ls[i-1]-ls[i] != VStep {
			t.Fatalf("levels not descending by %d: %v", VStep, ls)
		}
		if !ls[i].Valid() {
			t.Fatalf("level %v reported invalid", ls[i])
		}
	}
	if Millivolts(410).Valid() || Millivolts(725).Valid() || Millivolts(375).Valid() {
		t.Fatal("off-grid or out-of-range voltages reported valid")
	}
}

// TestDelayMonotonicity: every delay curve must grow as voltage drops.
func TestDelayMonotonicity(t *testing.T) {
	m := Default()
	curves := []struct {
		name string
		f    func(Millivolts) float64
	}{
		{"FO4", m.FO4},
		{"Phase", m.Phase},
		{"WLActivation", m.WLActivation},
		{"BitcellWrite", m.BitcellWrite},
		{"BitcellRead", m.BitcellRead},
		{"WriteWithWL", m.WriteWithWL},
		{"ReadWithWL", m.ReadWithWL},
		{"InterruptedWrite", m.InterruptedWrite},
		{"StabilizeTime", m.StabilizeTime},
		{"BaselineCycle", m.BaselineCycle},
		{"IRAWCycle", m.IRAWCycle},
	}
	for _, c := range curves {
		prev := -1.0
		for _, v := range Levels() { // descending voltage
			d := c.f(v)
			if d <= 0 {
				t.Fatalf("%s(%v) = %v, want positive", c.name, v, d)
			}
			if prev > 0 && d < prev {
				t.Fatalf("%s not monotone: %v at %v < %v at previous level", c.name, d, v, prev)
			}
			prev = d
		}
	}
}

// TestWriteGrowsFasterThanLogic checks the paper's central premise: write
// delay grows exponentially while logic grows roughly linearly, so the
// write/logic ratio keeps increasing as Vcc drops (Figure 1).
func TestWriteGrowsFasterThanLogic(t *testing.T) {
	m := Default()
	prevRatio := 0.0
	for _, v := range Levels() {
		ratio := m.WriteWithWL(v) / m.Phase(v)
		if ratio < prevRatio {
			t.Fatalf("write/logic ratio not increasing at %v: %v < %v", v, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	if prevRatio < 10 {
		t.Fatalf("write/logic ratio at 400mV = %v, want exponential blow-up (>10)", prevRatio)
	}
}

// TestFigure1Crossovers: the write path (with WL activation) becomes the
// cycle limiter near 600 mV; the 8-T read path never does.
func TestFigure1Crossovers(t *testing.T) {
	m := Default()
	if r := m.WriteWithWL(600) / m.Phase(600); !almost(r, 1.01, 0.02) {
		t.Errorf("write+WL vs phase at 600mV = %v, want ~1.01 (crossover)", r)
	}
	if r := m.WriteWithWL(625) / m.Phase(625); r >= 1.0 {
		t.Errorf("write+WL still critical at 625mV (ratio %v); paper says logic-limited above 600mV", r)
	}
	for _, v := range Levels() {
		if m.ReadWithWL(v) >= m.Phase(v) {
			t.Errorf("read path exceeds phase at %v; 8-T reads must never limit the cycle", v)
		}
	}
}

// TestPaperFrequencyAnchors checks the headline circuit-level numbers.
func TestPaperFrequencyAnchors(t *testing.T) {
	m := Default()
	// Frequency gains (Figure 11b): +57% at 500 mV, +99% at 400 mV.
	if g := m.FreqGain(500); !almost(g, 1.57, 0.02) {
		t.Errorf("FreqGain(500mV) = %v, want 1.57 +- 0.02", g)
	}
	if g := m.FreqGain(400); !almost(g, 1.99, 0.03) {
		t.Errorf("FreqGain(400mV) = %v, want 1.99 +- 0.03", g)
	}
	// Baseline frequency at 450 mV drops to ~24% of logic (Section 2.1).
	if r := m.LogicCycle(450) / m.BaselineCycle(450); !almost(r, 0.24, 0.015) {
		t.Errorf("baseline/logic frequency at 450mV = %v, want ~0.24", r)
	}
	// Cycle time "almost doubles" at 500 mV (Section 5.2 / Figure 11a).
	if r := m.BaselineCycle(500) / m.LogicCycle(500); !almost(r, 1.95, 0.06) {
		t.Errorf("baseline cycle inflation at 500mV = %v, want ~1.95 (almost 2x)", r)
	}
}

// TestStabilizationCycles: one stabilization cycle suffices across the whole
// active range in this technology (Section 5.2).
func TestStabilizationCycles(t *testing.T) {
	m := Default()
	for _, v := range Levels() {
		if v > 575 {
			continue
		}
		if n := m.StabilizeCycles(v); n != 1 {
			t.Errorf("StabilizeCycles(%v) = %d, want 1", v, n)
		}
	}
}

func TestPlanIRAWActivation(t *testing.T) {
	m := Default()
	for _, v := range Levels() {
		cp := m.PlanIRAW(v)
		if v >= 600 && cp.IRAWActive {
			t.Errorf("IRAW active at %v; paper deactivates at 600mV and above", v)
		}
		if v <= 575 && !cp.IRAWActive {
			t.Errorf("IRAW inactive at %v; paper keeps it active below 600mV", v)
		}
		if cp.IRAWActive {
			if cp.StabilizeCycles < 1 {
				t.Errorf("active plan at %v has N=%d", v, cp.StabilizeCycles)
			}
			if cp.FreqGain <= 1 {
				t.Errorf("active plan at %v has no frequency gain (%v)", v, cp.FreqGain)
			}
		} else {
			if cp.StabilizeCycles != 0 {
				t.Errorf("inactive plan at %v has N=%d, want 0", v, cp.StabilizeCycles)
			}
			if cp.CycleTime != m.BaselineCycle(v) {
				t.Errorf("inactive plan at %v must run baseline timing", v)
			}
		}
	}
}

func TestPlanBaselineProperties(t *testing.T) {
	m := Default()
	for _, v := range Levels() {
		cp := m.PlanBaseline(v)
		if cp.IRAWActive || cp.StabilizeCycles != 0 {
			t.Errorf("baseline plan at %v has IRAW state", v)
		}
		if !almost(cp.Frequency*cp.CycleTime, 1, 1e-12) {
			t.Errorf("frequency/cycle inconsistent at %v", v)
		}
		if cp.FreqGain != 1 {
			t.Errorf("baseline FreqGain at %v = %v, want 1", v, cp.FreqGain)
		}
	}
}

func TestCyclesForTime(t *testing.T) {
	cp := ClockPlan{CycleTime: 2.0}
	cases := []struct {
		t    float64
		want int
	}{
		{0, 0}, {-5, 0}, {0.1, 1}, {2.0, 1}, {2.0001, 2}, {4, 2}, {300, 150},
	}
	for _, c := range cases {
		if got := cp.CyclesForTime(c.t); got != c.want {
			t.Errorf("CyclesForTime(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

// TestMemoryLatencyScalesWithPlan: a constant-time memory takes fewer cycles
// on a slower clock; this drives Section 5.2's effect (i).
func TestMemoryLatencyScalesWithPlan(t *testing.T) {
	m := Default()
	const memTime = 300.0
	base := m.PlanBaseline(500).CyclesForTime(memTime)
	iraw := m.PlanIRAW(500).CyclesForTime(memTime)
	if base >= iraw {
		t.Errorf("memory cycles at 500mV: baseline %d >= IRAW %d; faster clock must see more cycles", base, iraw)
	}
}

func TestPlanExtraBypassWritePipelining(t *testing.T) {
	m := Default()
	cp := m.PlanExtraBypass(500)
	if cp.WritePipelineCycles < 2 {
		t.Errorf("extra-bypass at 500mV pipelines writes over %d cycles, want >=2", cp.WritePipelineCycles)
	}
	if cp.CycleTime != m.LogicCycle(500) {
		t.Errorf("extra-bypass must clock at logic speed")
	}
	hi := m.PlanExtraBypass(700)
	if hi.WritePipelineCycles != 1 {
		t.Errorf("extra-bypass at 700mV pipelines writes over %d cycles, want 1", hi.WritePipelineCycles)
	}
}

func TestPlanFaultyBitsTradeoff(t *testing.T) {
	m := Default()
	cp := m.PlanFaultyBits(500, 4)
	if cp.FreqGain <= 1 {
		t.Errorf("faulty-bits at 4 sigma should gain frequency, got %v", cp.FreqGain)
	}
	ir := m.PlanIRAW(500)
	if cp.FreqGain >= ir.FreqGain {
		t.Errorf("faulty-bits gain %v should stay below IRAW gain %v at 500mV", cp.FreqGain, ir.FreqGain)
	}
}

func TestPlanModeDispatch(t *testing.T) {
	m := Default()
	for _, mode := range []Mode{ModeBaseline, ModeIRAW, ModeFaultyBits, ModeExtraBypass} {
		cp := m.Plan(500, mode)
		if cp.Mode != mode {
			t.Errorf("Plan(500, %v) returned mode %v", mode, cp.Mode)
		}
		if cp.Vcc != 500 {
			t.Errorf("Plan(500, %v) returned Vcc %v", mode, cp.Vcc)
		}
	}
}

func TestModeString(t *testing.T) {
	want := map[Mode]string{
		ModeBaseline: "baseline", ModeIRAW: "iraw",
		ModeFaultyBits: "faultybits", ModeExtraBypass: "extrabypass",
	}
	for mo, s := range want {
		if mo.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(mo), mo.String(), s)
		}
	}
	if Mode(99).String() != "Mode(99)" {
		t.Errorf("unknown mode string = %q", Mode(99).String())
	}
}

func TestCellFailProb(t *testing.T) {
	// ~1 per billion at 6 sigma ("only one critical path per billion").
	if p := CellFailProb(6); p < 5e-10 || p > 2e-9 {
		t.Errorf("CellFailProb(6) = %v, want ~1e-9", p)
	}
	if p := CellFailProb(4); p < 2e-5 || p > 5e-5 {
		t.Errorf("CellFailProb(4) = %v, want ~3.2e-5", p)
	}
	if CellFailProb(0) != 0.5 {
		t.Errorf("CellFailProb(0) = %v, want 0.5", CellFailProb(0))
	}
}

func TestLineFailProb(t *testing.T) {
	if p := LineFailProb(4, 512); p < 0.01 || p > 0.025 {
		t.Errorf("LineFailProb(4, 512) = %v, want ~1.6%%", p)
	}
	if LineFailProb(4, 0) != 0 {
		t.Error("LineFailProb with zero bits must be 0")
	}
	// More bits per granule, more failures.
	if LineFailProb(4, 64) >= LineFailProb(4, 512) {
		t.Error("LineFailProb must grow with granule size")
	}
}

func TestGammaBounds(t *testing.T) {
	m := Default()
	for _, v := range Levels() {
		g := m.Gamma(v)
		if g <= 0 || g >= 1 {
			t.Errorf("Gamma(%v) = %v, want in (0,1): interrupted writes are a strict fraction of full writes", v, g)
		}
		if m.InterruptedWrite(v) >= m.BitcellWrite(v) {
			t.Errorf("interrupted write not shorter than full write at %v", v)
		}
	}
}

func TestNewModelPanicsOnBadParams(t *testing.T) {
	p := DefaultParams()
	p.VthMV = 500
	defer func() {
		if recover() == nil {
			t.Fatal("NewModel accepted Vth above operating range")
		}
	}()
	NewModel(p)
}

func TestPlanIRAWForcedN(t *testing.T) {
	m := Default()
	cp := m.PlanIRAWForcedN(500, 3)
	if cp.StabilizeCycles != 3 {
		t.Fatalf("forced N=3 got %d", cp.StabilizeCycles)
	}
	// Forcing N on an inactive plan leaves it inactive.
	if got := m.PlanIRAWForcedN(700, 2); got.IRAWActive {
		t.Fatal("forced N activated IRAW at 700mV")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range N did not panic")
		}
	}()
	m.PlanIRAWForcedN(500, 99)
}

func TestPlanIRAWFaultyBitsCombination(t *testing.T) {
	m := Default()
	for _, v := range []Millivolts{500, 450, 400} {
		pure := m.PlanIRAW(v)
		comb := m.PlanIRAWFaultyBits(v, 4)
		if !comb.IRAWActive {
			t.Fatalf("%v: combined plan inactive", v)
		}
		if comb.FreqGain <= pure.FreqGain {
			t.Errorf("%v: combined gain %.3f not above pure IRAW %.3f (Section 4.4 promises more)",
				v, comb.FreqGain, pure.FreqGain)
		}
		if comb.SigmaMargin != 4 {
			t.Errorf("%v: sigma margin %v", v, comb.SigmaMargin)
		}
		if comb.StabilizeCycles < 1 {
			t.Errorf("%v: N=%d", v, comb.StabilizeCycles)
		}
	}
	// At high Vcc the combination deactivates like pure IRAW.
	if cp := m.PlanIRAWFaultyBits(700, 4); cp.IRAWActive {
		t.Error("combined plan active at 700mV")
	}
}
