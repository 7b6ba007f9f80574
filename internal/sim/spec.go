package sim

// Sweep-spec (de)serialization: the wire form a sweep request travels in
// between the CLIs, the sweep daemon (internal/service) and its external
// worker processes. The spec deliberately carries generators, not data:
// the workload suite is a pure function of (InstsPerTrace,
// SeedsPerProfile), so a remote worker regenerates bit-identical traces
// locally instead of shipping megabytes of records, and the windowing
// parameters pin the exact journal content addresses both sides compute.

import (
	"fmt"
	"strings"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

// SweepSpec is a serializable sweep request: everything needed to
// reproduce the (mode, vcc, trace) cell grid deterministically on any
// process running the same engine build.
type SweepSpec struct {
	// InstsPerTrace and SeedsPerProfile size the workload suite
	// (workload.Suite); the suite is deterministic in them.
	InstsPerTrace   int `json:"insts_per_trace"`
	SeedsPerProfile int `json:"seeds_per_profile"`
	// Modes names the designs to sweep ("baseline", "iraw", "faultybits",
	// "extrabypass").
	Modes []string `json:"modes"`
	// LevelsMV lists the voltage levels in sweep order; empty selects the
	// full supported range (circuit.Levels()).
	LevelsMV []int `json:"levels_mv,omitempty"`
	// WindowInsts and WarmInsts mirror the Runner fields of the same names
	// (0 window = automatic windowing of long traces, negative = sharding
	// off; 0 or negative warm = the full prefix); they are part of every
	// cell's journal key via the per-trace resolved plan.
	WindowInsts int `json:"window_insts,omitempty"`
	WarmInsts   int `json:"warm_insts,omitempty"`
	// Width mirrors Runner.Width: the fetch/issue width of every core
	// configuration in the sweep grid, 0 for the modelled default. It is
	// part of the full core configuration and therefore of every cell's
	// journal content address, so the daemon and its worker processes must
	// agree on it — both build each cell's config through the same
	// width-aware path.
	Width int `json:"width,omitempty"`
}

// Validate reports whether the spec is structurally runnable. It is the
// admission check the sweep service applies to untrusted submissions, so
// it rejects rather than clamps.
func (s SweepSpec) Validate() error {
	if s.InstsPerTrace <= 0 {
		return fmt.Errorf("sim: spec: insts_per_trace %d must be positive", s.InstsPerTrace)
	}
	if s.InstsPerTrace > 100_000_000 {
		return fmt.Errorf("sim: spec: insts_per_trace %d is implausibly large", s.InstsPerTrace)
	}
	if s.SeedsPerProfile <= 0 || s.SeedsPerProfile > 64 {
		return fmt.Errorf("sim: spec: seeds_per_profile %d out of range [1, 64]", s.SeedsPerProfile)
	}
	if len(s.Modes) == 0 {
		return fmt.Errorf("sim: spec: no modes")
	}
	if _, err := s.CircuitModes(); err != nil {
		return err
	}
	for _, mv := range s.LevelsMV {
		v := circuit.Millivolts(mv)
		if v < circuit.VMin || v > circuit.VMax {
			return fmt.Errorf("sim: spec: level %dmV outside supported range [%v, %v]", mv, circuit.VMin, circuit.VMax)
		}
	}
	if s.Width != 0 && (s.Width < 1 || s.Width > core.MaxWidth) {
		return fmt.Errorf("sim: spec: width %d out of range [1, %d] (0 = default)", s.Width, core.MaxWidth)
	}
	return nil
}

// ParseMode maps a design name to its circuit.Mode (the inverse of
// Mode.String).
func ParseMode(name string) (circuit.Mode, error) {
	switch strings.TrimSpace(name) {
	case "baseline":
		return circuit.ModeBaseline, nil
	case "iraw":
		return circuit.ModeIRAW, nil
	case "faultybits":
		return circuit.ModeFaultyBits, nil
	case "extrabypass":
		return circuit.ModeExtraBypass, nil
	default:
		return 0, fmt.Errorf("sim: unknown mode %q (want baseline, iraw, faultybits or extrabypass)", name)
	}
}

// ParseModes maps a comma-separated design list ("baseline,iraw") to
// modes — the CLIs' -modes flag format.
func ParseModes(list string) ([]circuit.Mode, error) {
	return SweepSpec{Modes: strings.Split(list, ",")}.CircuitModes()
}

// CircuitModes resolves the spec's mode names.
func (s SweepSpec) CircuitModes() ([]circuit.Mode, error) {
	modes := make([]circuit.Mode, len(s.Modes))
	for i, name := range s.Modes {
		m, err := ParseMode(name)
		if err != nil {
			return nil, err
		}
		modes[i] = m
	}
	return modes, nil
}

// Levels resolves the spec's voltage list (full range when empty).
func (s SweepSpec) Levels() []circuit.Millivolts {
	if len(s.LevelsMV) == 0 {
		return circuit.Levels()
	}
	levels := make([]circuit.Millivolts, len(s.LevelsMV))
	for i, mv := range s.LevelsMV {
		levels[i] = circuit.Millivolts(mv)
	}
	return levels
}

// Traces materializes the spec's workload suite (memoized by workload's
// keyed cache, so repeated materialization across sweeps is free).
func (s SweepSpec) Traces() []*trace.Trace {
	return SuiteSpec{InstsPerTrace: s.InstsPerTrace, SeedsPerProfile: s.SeedsPerProfile}.Traces()
}

// Cells is the number of (mode, level, trace) cells the spec expands to,
// counted without materializing the suite: admission control checks it
// before paying for trace generation.
func (s SweepSpec) Cells() int {
	return len(s.Modes) * len(s.Levels()) * len(workload.Profiles()) * s.SeedsPerProfile
}

// NewRunner builds a Runner carrying the spec's windowing plan and core
// width — the configuration under which every cell's journal key is
// defined.
func (s SweepSpec) NewRunner() *Runner {
	return &Runner{WindowInsts: s.WindowInsts, WarmInsts: s.WarmInsts, Width: s.Width}
}

// PointConfig builds the core configuration of one of the spec's cells —
// the spec's width applied over the modelled default. The sweep daemon
// (key planning) and its external workers (lease execution) both construct
// configs through here, which is what keeps their journal content
// addresses in agreement.
func (s SweepSpec) PointConfig(v circuit.Millivolts, mode circuit.Mode) core.Config {
	return (&Runner{Width: s.Width}).pointConfig(v, mode)
}

// SweepLabel is the canonical label of one operating point's cells, shared
// by local sweeps and the sweep service so progress lines and
// fault-injection rules match either way.
func SweepLabel(v circuit.Millivolts, mode circuit.Mode) string {
	return fmt.Sprintf("sweep %v %v", v, mode)
}
