// Package circuit models the delay and timing behaviour of logic and 8-T
// SRAM bitcells across the supply-voltage range studied by the paper
// (700 mV down to 400 mV, 45 nm).
//
// The paper obtained these curves from Intel electrical simulations
// (Figure 1); we substitute an analytic model with the same shape,
// calibrated against every numeric anchor the paper publishes:
//
//   - logic delay (a chain of FO4 inverters) grows roughly linearly as Vcc
//     drops (alpha-power law);
//   - bitcell write delay grows exponentially and, including wordline (WL)
//     activation, crosses the 12-FO4 clock phase near 600 mV (near 525 mV
//     without WL activation);
//   - the write-constrained cycle is about 2x the logic cycle at 500 mV and
//     about 4.2x at 450 mV (frequency down to 24%);
//   - interrupting writes early (IRAW avoidance) yields frequency gains of
//     +57% at 500 mV and +99% at 400 mV, with one stabilization cycle
//     sufficing at and below 575 mV.
//
// All delays are expressed in arbitrary units where one clock phase
// (12 FO4) at 700 mV equals 1.0, matching Figure 1's normalization.
package circuit

import (
	"fmt"
	"math"
)

// Millivolts is a supply voltage level. The paper's operating range is
// [400 mV, 700 mV] in 25 mV steps.
type Millivolts int

// Supported voltage range.
const (
	VMin Millivolts = 400
	VMax Millivolts = 700
	// VStep is the granularity of the DVFS controller.
	VStep = 25
)

// String implements fmt.Stringer ("500mV").
func (v Millivolts) String() string { return fmt.Sprintf("%dmV", int(v)) }

// Valid reports whether v lies in the modelled range on a 25 mV step.
func (v Millivolts) Valid() bool {
	return v >= VMin && v <= VMax && (v-VMin)%VStep == 0
}

// Levels returns all modelled voltage levels in descending order,
// 700, 675, ..., 400, matching the x-axes of Figures 1, 11 and 12.
func Levels() []Millivolts {
	levels := make([]Millivolts, 0, int((VMax-VMin)/VStep)+1)
	for v := VMax; v >= VMin; v -= VStep {
		levels = append(levels, v)
	}
	return levels
}

// Params holds the calibration constants of the delay model. DefaultParams
// returns the set calibrated against the paper's anchors; tests guard the
// resulting curve properties, and ablation studies may perturb them.
type Params struct {
	// VthMV and Alpha parameterize the alpha-power logic-delay law:
	// FO4(V) proportional to V / (V - Vth)^Alpha.
	VthMV float64
	Alpha float64

	// FO4PerPhase is the logic depth of one clock phase (the paper uses a
	// 12-FO4 phase and a 24-FO4 cycle).
	FO4PerPhase int

	// WLFrac is the wordline-activation delay as a fraction of a clock
	// phase ("low, and its slope resembles that of the 12 FO4 chain").
	WLFrac float64

	// ReadFrac is the bitcell/bitline read delay as a fraction of a clock
	// phase; 8-T cells keep reads comfortably below the phase.
	ReadFrac float64

	// Bitcell write delay in phase units is
	//   R(V) - WLFrac, with R(V) = WriteR600 * exp(a*x + b*x^2 + c*x^3),
	// where x = 600 - V in mV and R is the (write+WL)/phase ratio. Above
	// 600 mV only the linear term is used so the curve stays monotone.
	WriteR600              float64
	WriteA, WriteB, WriteC float64
	// GammaAt400 and GammaAt500 set the interrupted-write fraction
	// gamma(V): the portion of the full bitcell write delay that must
	// elapse (wordline active, bitlines driven) before the write may be
	// interrupted and the cell left to stabilize on its own. Linear in V.
	GammaAt400, GammaAt500 float64

	// StabFactor scales the full write delay to give the self-stabilization
	// time after interruption (the cell "must complete its flip on its own,
	// with no further help from the bitlines").
	StabFactor float64

	// SigmaLN is the lognormal sigma of per-bitcell write-delay variation;
	// the nominal curves already include SigmaMargin sigmas of margin
	// ("only one critical path per billion would not fit the cycle time").
	SigmaLN     float64
	SigmaMargin float64

	// ActivationGain is the minimum frequency gain for which the DVFS
	// controller keeps IRAW avoidance enabled; below it the stall overhead
	// outweighs the gain (the paper deactivates at 600 mV where the gain
	// would be a modest 1%).
	ActivationGain float64

	// MaxStabilizeCycles bounds N for sanity; the paper's range needs N=1
	// but other technology nodes may need more (Section 5.2).
	MaxStabilizeCycles int
}

// DefaultParams returns the calibration used throughout the reproduction.
func DefaultParams() Params {
	return Params{
		VthMV:              280,
		Alpha:              1.25,
		FO4PerPhase:        12,
		WLFrac:             0.15,
		ReadFrac:           0.55,
		WriteR600:          1.01,
		WriteA:             0.0038159,
		WriteB:             7.826e-6,
		WriteC:             1.98152e-7,
		GammaAt400:         0.49729,
		GammaAt500:         0.60669,
		StabFactor:         1.0,
		SigmaLN:            0.08,
		SigmaMargin:        6.0,
		ActivationGain:     1.10,
		MaxStabilizeCycles: 4,
	}
}

// Model evaluates the delay curves for one parameter set. The zero value is
// not valid; use NewModel.
type Model struct {
	p       Params
	fo4Norm float64 // normalization so Phase(700) == 1
}

// Validate reports whether the parameters are structurally usable.
// NewModel panics on the same conditions (an invariant backstop), so API
// boundaries that accept user-supplied parameters — core.New via
// Config.Circuit — check here first and return the error instead.
func (p Params) Validate() error {
	if p.VthMV >= float64(VMin) {
		return fmt.Errorf("circuit: VthMV %.0f must be below the minimum operating voltage %d", p.VthMV, VMin)
	}
	if p.FO4PerPhase <= 0 {
		return fmt.Errorf("circuit: FO4PerPhase must be positive (got %v)", p.FO4PerPhase)
	}
	if p.MaxStabilizeCycles < 1 {
		return fmt.Errorf("circuit: MaxStabilizeCycles must be at least 1 (got %d): an interrupted write stabilizes over N >= 1 cycles", p.MaxStabilizeCycles)
	}
	return nil
}

// NewModel returns a Model for the given parameters. It panics if the
// parameters are structurally invalid (e.g. Vth at or above VMin), since
// that indicates a programming error rather than a runtime condition;
// validate user input with Params.Validate first.
func NewModel(p Params) *Model {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	m := &Model{p: p, fo4Norm: 1}
	m.fo4Norm = 1 / (float64(p.FO4PerPhase) * m.fo4Raw(VMax))
	return m
}

// Default returns a Model with DefaultParams.
func Default() *Model { return NewModel(DefaultParams()) }

// Params returns a copy of the model's parameters.
func (m *Model) Params() Params { return m.p }

func (m *Model) fo4Raw(v Millivolts) float64 {
	vv := float64(v)
	return vv / math.Pow(vv-m.p.VthMV, m.p.Alpha)
}

// FO4 returns the delay of a single FO4 inverter at v.
func (m *Model) FO4(v Millivolts) float64 { return m.fo4Raw(v) * m.fo4Norm }

// Phase returns the duration of one clock phase's worth of logic
// (FO4PerPhase inverters); 1.0 at 700 mV by construction.
func (m *Model) Phase(v Millivolts) float64 {
	return float64(m.p.FO4PerPhase) * m.FO4(v)
}

// LogicCycle returns the cycle time that pure logic would permit
// (two clock phases).
func (m *Model) LogicCycle(v Millivolts) float64 { return 2 * m.Phase(v) }

// WLActivation returns the wordline-activation delay at v.
func (m *Model) WLActivation(v Millivolts) float64 {
	return m.p.WLFrac * m.Phase(v)
}

// writeRatio returns R(V) = (WL + bitcell write) / phase.
func (m *Model) writeRatio(v Millivolts) float64 {
	x := 600 - float64(v)
	if x < 0 {
		// Above 600 mV keep the curve monotone with the linear term only.
		return m.p.WriteR600 * math.Exp(m.p.WriteA*x)
	}
	e := m.p.WriteA*x + m.p.WriteB*x*x + m.p.WriteC*x*x*x
	return m.p.WriteR600 * math.Exp(e)
}

// BitcellWrite returns the full (uninterrupted) bitcell write delay at v,
// excluding wordline activation. This is the exponentially growing curve of
// Figure 1 and includes the design-time SigmaMargin variation margin.
func (m *Model) BitcellWrite(v Millivolts) float64 {
	return (m.writeRatio(v) - m.p.WLFrac) * m.Phase(v)
}

// BitcellWriteAtSigma returns the write delay re-margined for k sigmas of
// process variation instead of the design-time SigmaMargin. Faulty-Bits
// style designs use k < SigmaMargin for a shorter cycle at the cost of a
// population of cells that no longer meet timing.
func (m *Model) BitcellWriteAtSigma(v Millivolts, k float64) float64 {
	return m.BitcellWrite(v) * math.Exp((k-m.p.SigmaMargin)*m.p.SigmaLN)
}

// BitcellRead returns the bitcell/bitline read delay at v (excluding WL).
func (m *Model) BitcellRead(v Millivolts) float64 {
	return m.p.ReadFrac * m.Phase(v)
}

// WriteWithWL returns wordline activation plus full bitcell write delay:
// the path that constrains the second clock phase in the baseline design.
func (m *Model) WriteWithWL(v Millivolts) float64 {
	return m.writeRatio(v) * m.Phase(v)
}

// ReadWithWL returns wordline activation plus bitline read delay.
func (m *Model) ReadWithWL(v Millivolts) float64 {
	return m.WLActivation(v) + m.BitcellRead(v)
}

// Gamma returns the interrupted-write fraction gamma(V): how much of the
// full bitcell write delay must elapse before the wordline may be safely
// deactivated (properties (i)-(iii) of Section 3.2).
func (m *Model) Gamma(v Millivolts) float64 {
	g := m.p.GammaAt400 + (m.p.GammaAt500-m.p.GammaAt400)*(float64(v)-400)/100
	if g > 1 {
		g = 1
	}
	if g < 0 {
		g = 0
	}
	return g
}

// InterruptedWrite returns the minimum effective write time under IRAW
// avoidance: the wordline-active portion after which the cell flips far
// enough to finish stabilizing on its own.
func (m *Model) InterruptedWrite(v Millivolts) float64 {
	return m.Gamma(v) * m.BitcellWrite(v)
}

// StabilizeTime returns how long an interrupted cell needs to reach a
// readable state after its wordline is deactivated.
func (m *Model) StabilizeTime(v Millivolts) float64 {
	return m.p.StabFactor * m.BitcellWrite(v)
}

// BaselineCycle returns the cycle time of the conventional design, where
// the second clock phase must fit wordline activation plus a complete
// bitcell write (Figure 4, top).
func (m *Model) BaselineCycle(v Millivolts) float64 {
	phase := m.Phase(v)
	return 2 * math.Max(phase, m.WriteWithWL(v))
}

// BaselineCycleAtSigma is BaselineCycle with the write path re-margined to
// k sigmas (used by the Faulty-Bits comparison design).
func (m *Model) BaselineCycleAtSigma(v Millivolts, k float64) float64 {
	phase := m.Phase(v)
	wl := m.WLActivation(v)
	w := m.BitcellWriteAtSigma(v, k)
	return 2 * math.Max(phase, wl+w)
}

// IRAWCycle returns the cycle time with IRAW avoidance: the second phase
// must fit wordline activation plus only the interrupted-write portion, and
// reads (never the limiter for 8-T cells in this range) must also fit.
func (m *Model) IRAWCycle(v Millivolts) float64 {
	phase := m.Phase(v)
	second := math.Max(m.WLActivation(v)+m.InterruptedWrite(v), m.ReadWithWL(v))
	return 2 * math.Max(phase, second)
}

// StabilizeCycles returns N, the number of whole IRAW cycles an interrupted
// write needs before its bitcells are readable again.
func (m *Model) StabilizeCycles(v Millivolts) int {
	cyc := m.IRAWCycle(v)
	n := int(math.Ceil(m.StabilizeTime(v)/cyc - 1e-9))
	if n < 1 {
		n = 1
	}
	if n > m.p.MaxStabilizeCycles {
		n = m.p.MaxStabilizeCycles
	}
	return n
}

// FreqGain returns the operating-frequency ratio IRAW/baseline at v
// (Figure 11(b), squares): 1.57 at 500 mV and 1.99 at 400 mV under the
// default calibration.
func (m *Model) FreqGain(v Millivolts) float64 {
	return m.BaselineCycle(v) / m.IRAWCycle(v)
}
