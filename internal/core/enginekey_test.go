package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/workload"
)

// The classification of every Config field for EngineKey. A field the
// engine reads as is stays in the key; a plan-only field reaches the
// engine only through the clock plan, whose engine-visible part the key
// holds instead; a fault-map field counts only when maps install.
var (
	engineFields   = []string{"Width", "Scoreboard", "IQ", "Hierarchy", "Predictor", "MispredictPenalty", "FrontDepth", "DisableFastPaths", "MaxCycles"}
	planOnlyFields = []string{"Vcc", "Mode", "Circuit", "MemLatencyTime", "ForcedN", "DisableAvoidance", "CombineFaultyBits"}
	faultMapFields = []string{"FaultySigma", "Seed"}
)

// TestEngineKeyCoversConfig: every Config field is classified exactly
// once, and EngineKey treats it as classified — an engine field is kept
// verbatim, a plan-only field is cleared, a fault-map field is kept only
// when maps install. A new Config field fails here until it is placed.
func TestEngineKeyCoversConfig(t *testing.T) {
	params := circuit.DefaultParams()
	maps := DefaultConfig(450, circuit.ModeIRAW)
	maps.CombineFaultyBits, maps.Circuit, maps.MaxCycles, maps.DisableFastPaths = true, &params, 1<<40, true
	noMaps := DefaultConfig(450, circuit.ModeIRAW)
	noMaps.ForcedN, noMaps.DisableAvoidance, noMaps.Circuit = 2, true, &params

	for _, cfg := range []Config{maps, noMaps} {
		k, plan, err := EngineKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := MustNew(cfg).Plan(); plan != want {
			t.Fatalf("EngineKey plan %+v, core plan %+v", plan, want)
		}
		typ := reflect.TypeOf(cfg)
		in, kept := reflect.ValueOf(cfg), reflect.ValueOf(k.cfg)
		for i := range typ.NumField() {
			name := typ.Field(i).Name
			lists := 0
			for _, l := range [][]string{engineFields, planOnlyFields, faultMapFields} {
				if slices.Contains(l, name) {
					lists++
				}
			}
			if lists != 1 {
				t.Fatalf("Config.%s is on %d of the engine/plan-only/fault-map lists; classify it exactly once", name, lists)
			}
			keep := slices.Contains(engineFields, name) ||
				(slices.Contains(faultMapFields, name) && k.timing.faultMaps)
			switch {
			case keep && !reflect.DeepEqual(kept.Field(i).Interface(), in.Field(i).Interface()):
				t.Errorf("maps=%v: engine field Config.%s not kept in the key", k.timing.faultMaps, name)
			case !keep && !kept.Field(i).IsZero():
				t.Errorf("maps=%v: plan-only field Config.%s left in the key", k.timing.faultMaps, name)
			}
		}
	}

	// Engine scalars split the key; plan-only inputs that derive the same
	// engine timing do not.
	base := DefaultConfig(600, circuit.ModeBaseline)
	kb, _, _ := EngineKey(base)
	for name, mut := range map[string]func(*Config){
		"Width":             func(c *Config) { c.Width = 1 },
		"MispredictPenalty": func(c *Config) { c.MispredictPenalty++ },
		"FrontDepth":        func(c *Config) { c.FrontDepth++ },
		"DisableFastPaths":  func(c *Config) { c.DisableFastPaths = true },
		"MaxCycles":         func(c *Config) { c.MaxCycles = 1 << 40 },
		"Vcc":               func(c *Config) { c.Vcc = 500 },
		"faulty bits":       func(c *Config) { c.Mode = circuit.ModeFaultyBits },
	} {
		cfg := base
		mut(&cfg)
		if k, _, _ := EngineKey(cfg); k == kb {
			t.Errorf("%s change left the key equal", name)
		}
	}
	for name, mut := range map[string]func(*Config){
		"iraw (inactive at 600 mV)": func(c *Config) { c.Mode = circuit.ModeIRAW },
		"Circuit = &defaults":       func(c *Config) { c.Circuit = &params },
		"Seed without fault maps":   func(c *Config) { c.Seed = 99 },
		"DisableAvoidance":          func(c *Config) { c.DisableAvoidance = true },
	} {
		cfg := base
		mut(&cfg)
		if k, _, _ := EngineKey(cfg); k != kb {
			t.Errorf("%s split the key", name)
		}
	}
	if _, _, err := EngineKey(Config{}); err == nil {
		t.Error("EngineKey accepted the zero Config")
	}
}

// fuzzConfig decodes one operating point from b: mode, level, width,
// ForcedN, DisableAvoidance, CombineFaultyBits, FaultySigma, Seed,
// MemLatencyTime and a circuit calibration with a slower write path, each
// from its own bit field.
func fuzzConfig(b uint64) Config {
	levels := circuit.Levels()
	mode := circuit.Mode(b & 3)
	v := levels[int(b>>2&15)%len(levels)]
	cfg := DefaultConfigWidth(v, mode, 1+int(b>>6&3))
	cfg.ForcedN = int(b >> 8 & 3)
	cfg.DisableAvoidance = b>>10&1 == 1
	cfg.CombineFaultyBits = b>>11&1 == 1
	cfg.FaultySigma = []float64{4, 3.5, 4.5, 4}[b>>12&3]
	cfg.Seed = 1 + b>>14&1
	cfg.MemLatencyTime = []float64{240, 241, 300, 240}[b>>15&3]
	if b>>17&1 == 1 {
		p := circuit.DefaultParams()
		p.WriteR600 = 1.02 // a longer cycle wherever writes bound it
		cfg.Circuit = &p
	}
	return cfg
}

// FuzzEngineKey: whenever two configurations share an EngineKey, the
// simulated Result of one, re-stamped with the other's plan, equals the
// other's Result byte for byte. The input is a config and a mask of the
// fields to flip for the second one.
func FuzzEngineKey(f *testing.F) {
	for _, c := range []struct{ a, mask uint64 }{
		{0<<0 | 4<<2, 1},         // baseline vs iraw at 600 mV
		{0<<0 | 0<<2, 1},         // baseline vs iraw at 700 mV
		{0<<0 | 2<<2, 3},         // baseline vs extrabypass at 650 mV
		{1<<0 | 8<<2, 1 << 8},    // iraw 500 mV, ForcedN 0 vs 1
		{1<<0 | 8<<2, 1 << 15},   // iraw 500 mV, memory latency 240 vs 241
		{2<<0 | 8<<2, 1 << 14},   // faulty bits 500 mV, seed 1 vs 2
		{1<<0 | 4<<2, 1 << 11},   // iraw 600 mV, combined faulty bits
		{1<<0 | 12<<2, 1 << 10},  // iraw 400 mV, avoidance off
		{0<<0 | 4<<2 | 1<<6, 1},  // width 2
		{0<<0 | 4<<2 | 3<<6, 1},  // width 4
		{3<<0 | 1<<2, 3 | 1<<12}, // extrabypass vs baseline, sigma
		{2<<0 | 10<<2, 1 << 12},  // faulty bits, sigma 4 vs 3.5
		{0<<0 | 6<<2, 1 << 17},   // baseline 550 mV, slower write path
		{0<<0 | 12<<2, 1 << 17},  // baseline 400 mV, slower write path
	} {
		f.Add(c.a, c.mask)
	}
	tr := workload.Generate(workload.SpecInt(), 1500, 3)
	f.Fuzz(func(t *testing.T, a, mask uint64) {
		ca, cb := fuzzConfig(a), fuzzConfig(a^mask)
		ka, _, errA := EngineKey(ca)
		kb, planB, errB := EngineKey(cb)
		if errA != nil || errB != nil || ka != kb {
			return
		}
		got, err := json.Marshal(runWarm(t, ca, tr).Replan(planB))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(runWarm(t, cb, tr))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("equal keys, different results:\n%+v\n%+v\n got %s\nwant %s", ca, cb, got, want)
		}
	})
}
