package core

import (
	"lowvcc/internal/cache"
	"lowvcc/internal/circuit"
)

// engineTiming is what a clock plan configures in the timed engine: the
// memory side's timing mode (whose Interrupted and N are the plan's
// IRAWActive and StabilizeCycles, which the scoreboard, IQ, register file
// and predictor read too), the register file's write-pipeline depth, and
// whether fault maps install.
type engineTiming struct {
	mem           cache.TimingMode
	writePipeline int
	faultMaps     bool
}

// deriveTiming computes cfg's clock plan under model m and the engine
// timing it implies. It is the one derivation: applyPlan installs its
// result in a core, and EngineKey keys by it.
func deriveTiming(m *circuit.Model, cfg *Config) (engineTiming, circuit.ClockPlan) {
	v := cfg.Vcc
	var plan circuit.ClockPlan
	switch cfg.Mode {
	case circuit.ModeIRAW:
		switch {
		case cfg.CombineFaultyBits:
			plan = m.PlanIRAWFaultyBits(v, cfg.FaultySigma)
		case cfg.ForcedN > 0:
			plan = m.PlanIRAWForcedN(v, cfg.ForcedN)
		default:
			plan = m.PlanIRAW(v)
		}
	case circuit.ModeFaultyBits:
		plan = m.PlanFaultyBits(v, cfg.FaultySigma)
	default:
		plan = m.Plan(v, cfg.Mode)
	}

	memCycles := plan.CyclesForTime(cfg.MemLatencyTime)
	if memCycles < 1 {
		memCycles = 1
	}
	return engineTiming{
		mem: cache.TimingMode{
			Interrupted: plan.IRAWActive,
			N:           plan.StabilizeCycles,
			Avoid:       plan.IRAWActive && !cfg.DisableAvoidance,
			MemCycles:   memCycles,
		},
		writePipeline: plan.WritePipelineCycles,
		faultMaps: cfg.Mode == circuit.ModeFaultyBits ||
			(cfg.Mode == circuit.ModeIRAW && cfg.CombineFaultyBits),
	}, plan
}

// circuitParams returns the delay-model calibration cfg selects.
func circuitParams(cfg *Config) circuit.Params {
	if cfg.Circuit != nil {
		return *cfg.Circuit
	}
	return circuit.DefaultParams()
}

// EngineInput is everything the timed engine reads of a Config: the
// configuration with its plan-only inputs cleared, plus the engine timing
// its clock plan derives. It is comparable, so it can key a map.
//
// Two configurations with equal EngineInputs simulate identical cycles on
// every trace: their Results differ only in Plan and Time, and
// Result.Replan turns one into the other.
type EngineInput struct {
	cfg    Config
	timing engineTiming
}

// EngineKey returns cfg's engine input and clock plan without building a
// core: the plan is what New(cfg).Plan() reports, derived the same way.
// It fails when cfg does not validate, as New does.
func EngineKey(cfg Config) (EngineInput, circuit.ClockPlan, error) {
	if err := cfg.Validate(); err != nil {
		return EngineInput{}, circuit.ClockPlan{}, err
	}
	t, plan := deriveTiming(circuit.NewModel(circuitParams(&cfg)), &cfg)
	// Clear what reaches the engine only through the plan, for which the
	// derived timing stands, and the fault-map identity when no map
	// installs. Every other field reaches the engine as is and stays.
	cfg.Vcc, cfg.Mode, cfg.Circuit = 0, 0, nil
	cfg.MemLatencyTime, cfg.ForcedN = 0, 0
	cfg.DisableAvoidance, cfg.CombineFaultyBits = false, false
	if !t.faultMaps {
		cfg.FaultySigma, cfg.Seed = 0, 0
	}
	return EngineInput{cfg: cfg, timing: t}, plan, nil
}
