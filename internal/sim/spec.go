package sim

// Sweep-spec (de)serialization: the wire form a sweep request travels in
// between the CLIs, the sweep daemon (internal/service) and its external
// worker processes. The spec deliberately carries generators, not data:
// the workload suite is a pure function of (InstsPerTrace,
// SeedsPerProfile), so a remote worker regenerates bit-identical traces
// locally instead of shipping megabytes of records (a point names its
// traces the same way, TraceSet), and the windowing parameters pin the
// exact journal content addresses both sides compute.

import (
	"fmt"
	"strings"

	"lowvcc/internal/cache"
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
	// Points are explicit operating points, each a full core
	// configuration; they expand after the (mode, level) grid.
	Points []SpecPoint `json:"points,omitempty"`
}

// SpecPoint is one explicit operating point of a SweepSpec.
type SpecPoint struct {
	Label  string      `json:"label"`
	Config core.Config `json:"config"`
	Traces TraceSet    `json:"traces"`
}

// TraceSet names a point's traces relative to its spec's suite: the suite
// as generated (the zero value), or with Transform "reschedule" every
// suite trace under workload.Reschedule at MinGap.
type TraceSet struct {
	Transform string `json:"transform,omitempty"`
	MinGap    int    `json:"min_gap,omitempty"`
}

// Bounds on an explicit point. A point is untrusted input the daemon
// admits, and these fields size what a core allocates or how long it may
// run, so each has a fixed ceiling well above any modelled or ablated core.
const (
	maxCacheLines  = 1 << 16 // sets x ways of each cache and TLB
	maxQueue       = 1 << 10 // IQ, RSB, fill buffer, WCB, Store Table, registers
	maxBPEntries   = 1 << 16
	maxPointCycles = 1 << 32
	maxMinGap      = 64 // a reschedule's gap; the modelled core needs 8
)

// validate admits one explicit point: core's own validation, then the
// bounds, and a trace set this package knows.
func (p SpecPoint) validate() error {
	c, h := p.Config, p.Config.Hierarchy
	if err := c.Validate(); err != nil {
		return err
	}
	for _, b := range []cache.Config{h.IL0, h.DL0, h.UL1, h.ITLB, h.DTLB} {
		if b.Sets > maxCacheLines || b.Sets*b.Ways > maxCacheLines {
			return fmt.Errorf("cache %q: %d sets x %d ways exceeds %d lines", b.Name, b.Sets, b.Ways, maxCacheLines)
		}
	}
	if max(c.IQ.Size, c.Predictor.RSBEntries, h.FillBufferEntries, h.WCBEntries, c.Scoreboard.Regs, h.StoresPerCycle, h.MaxStabilize) > maxQueue ||
		h.StoresPerCycle*(h.MaxStabilize+1) > maxQueue {
		return fmt.Errorf("a queue exceeds %d entries (IQ %d, RSB %d, fill buffer %d, WCB %d, registers %d, Store Table %d x %d)", maxQueue,
			c.IQ.Size, c.Predictor.RSBEntries, h.FillBufferEntries, h.WCBEntries, c.Scoreboard.Regs, h.StoresPerCycle, h.MaxStabilize+1)
	}
	if c.Predictor.BPEntries > maxBPEntries || c.MaxCycles < 0 || c.MaxCycles > maxPointCycles {
		return fmt.Errorf("BP entries %d or MaxCycles %d outside [1, %d] and [0, %d]", c.Predictor.BPEntries, c.MaxCycles, maxBPEntries, int64(maxPointCycles))
	}
	if t := p.Traces; t != (TraceSet{}) && (t.Transform != "reschedule" || t.MinGap < 1 || t.MinGap > maxMinGap) {
		return fmt.Errorf("unknown trace set %+v (want the suite, or transform \"reschedule\" at min_gap [1, %d])", t, maxMinGap)
	}
	return nil
}

// Resolve applies the set to traces, which are traces of the spec's suite.
func (t TraceSet) Resolve(traces []*trace.Trace) []*trace.Trace {
	if t.Transform == "" {
		return traces
	}
	out := make([]*trace.Trace, len(traces))
	for i, tr := range traces {
		out[i] = workload.Reschedule(tr, t.MinGap)
	}
	return out
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
	if len(s.Modes) == 0 && len(s.Points) == 0 {
		return fmt.Errorf("sim: spec: no modes and no points")
	}
	if _, err := s.CircuitModes(); err != nil {
		return err
	}
	for _, mv := range s.LevelsMV {
		if !circuit.Millivolts(mv).Valid() {
			return fmt.Errorf("sim: spec: level %dmV is not a supported level (%v to %v in %dmV steps)", mv, circuit.VMin, circuit.VMax, int(circuit.VStep))
		}
	}
	if s.Width != 0 && (s.Width < 1 || s.Width > core.MaxWidth) {
		return fmt.Errorf("sim: spec: width %d out of range [1, %d] (0 = default)", s.Width, core.MaxWidth)
	}
	for i, p := range s.Points {
		if err := p.validate(); err != nil {
			return fmt.Errorf("sim: spec: point %d (%q): %w", i, p.Label, err)
		}
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

// Expand lists the spec's points in cell order without materializing a
// trace: the (mode, level) grid first, mode-major, each point the default
// core at the spec's width over the suite; then Points. A spec's cells
// are its points' (point, trace) pairs in this order.
func (s SweepSpec) Expand() []SpecPoint {
	modes, _ := s.CircuitModes() // Validate rejects an unknown mode
	var points []SpecPoint
	for _, p := range (&Runner{Width: s.Width}).SweepPoints(nil, modes, s.Levels()) {
		points = append(points, SpecPoint{Label: p.Label, Config: p.Cfg})
	}
	return append(points, s.Points...)
}

// PointSpecs is Expand with each point's traces materialized.
func (s SweepSpec) PointSpecs() []PointSpec {
	suite := s.Traces()
	var specs []PointSpec
	for _, p := range s.Expand() {
		specs = append(specs, PointSpec{Label: p.Label, Cfg: p.Config, Traces: p.Traces.Resolve(suite), set: p.Traces})
	}
	return specs
}

// Cells is the number of (point, trace) cells the spec expands to,
// counted without materializing the suite: admission control checks it
// before paying for trace generation.
func (s SweepSpec) Cells() int {
	return len(s.Expand()) * len(workload.Profiles()) * s.SeedsPerProfile
}

// NewRunner builds a Runner carrying the spec's windowing plan and core
// width — the configuration under which every cell's journal key is
// defined.
func (s SweepSpec) NewRunner() *Runner {
	return &Runner{WindowInsts: s.WindowInsts, WarmInsts: s.WarmInsts, Width: s.Width}
}

// PointConfig builds the core configuration of one of the spec's (mode,
// level) grid points: the spec's width applied over the modelled default.
func (s SweepSpec) PointConfig(v circuit.Millivolts, mode circuit.Mode) core.Config {
	return (&Runner{Width: s.Width}).pointConfig(v, mode)
}

// SweepLabel is the canonical label of one (mode, level) grid point's
// cells, shared by local sweeps and the sweep service so progress lines
// and cell events name a point the same way either way.
func SweepLabel(v circuit.Millivolts, mode circuit.Mode) string {
	return fmt.Sprintf("sweep %v %v", v, mode)
}
