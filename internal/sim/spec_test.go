package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"lowvcc/internal/cache"
	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/journal"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

// TestSweepSpecRoundTrip: the wire form preserves every field a remote
// worker needs to recompute the cell grid.
func TestSweepSpecRoundTrip(t *testing.T) {
	spec := SweepSpec{
		InstsPerTrace:   2000,
		SeedsPerProfile: 1,
		Modes:           []string{"baseline", "iraw"},
		LevelsMV:        []int{500, 400},
		WindowInsts:     1000,
		WarmInsts:       -1,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var got SweepSpec
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.InstsPerTrace != spec.InstsPerTrace || got.WarmInsts != spec.WarmInsts ||
		len(got.Modes) != 2 || len(got.LevelsMV) != 2 {
		t.Fatalf("round trip mangled the spec: %+v", got)
	}

	modes, err := got.CircuitModes()
	if err != nil {
		t.Fatal(err)
	}
	if modes[0] != circuit.ModeBaseline || modes[1] != circuit.ModeIRAW {
		t.Fatalf("CircuitModes = %v", modes)
	}
	levels := got.Levels()
	if len(levels) != 2 || levels[0] != 500 || levels[1] != 400 {
		t.Fatalf("Levels = %v", levels)
	}
	r := got.NewRunner()
	if r.WindowInsts != 1000 || r.WarmInsts != -1 {
		t.Fatalf("NewRunner dropped windowing: %+v", r)
	}
}

// TestSweepSpecValidateRejects: the admission check rejects every
// structurally broken spec a client could submit, and an explicit point
// unless core accepts its configuration, every size field that drives
// allocation is within its fixed bound and its trace set is the suite or a
// known transform of it.
func TestSweepSpecValidateRejects(t *testing.T) {
	good := SweepSpec{InstsPerTrace: 1000, SeedsPerProfile: 1, Modes: []string{"baseline"}}
	if err := good.Validate(); err != nil {
		t.Fatalf("minimal spec rejected: %v", err)
	}
	optOut := good
	optOut.WindowInsts = -1
	if err := optOut.Validate(); err != nil {
		t.Fatalf("negative window (the sharding opt-out spelling) rejected: %v", err)
	}
	point := SpecPoint{Label: "p", Config: core.DefaultConfig(500, circuit.ModeIRAW), Traces: TraceSet{Transform: "reschedule", MinGap: 8}}
	pointsOnly := SweepSpec{InstsPerTrace: 1000, SeedsPerProfile: 1, Points: []SpecPoint{point}}
	if err := pointsOnly.Validate(); err != nil {
		t.Fatalf("a spec of one default point rejected: %v", err)
	}
	withPoint := func(edit func(*SpecPoint)) func(*SweepSpec) {
		return func(s *SweepSpec) {
			p := point
			edit(&p)
			s.Points = []SpecPoint{p}
		}
	}
	for name, mutate := range map[string]func(*SweepSpec){
		"zero insts":     func(s *SweepSpec) { s.InstsPerTrace = 0 },
		"huge insts":     func(s *SweepSpec) { s.InstsPerTrace = 1 << 40 },
		"zero seeds":     func(s *SweepSpec) { s.SeedsPerProfile = 0 },
		"no modes":       func(s *SweepSpec) { s.Modes = nil },
		"unknown mode":   func(s *SweepSpec) { s.Modes = []string{"turbo"} },
		"level too low":  func(s *SweepSpec) { s.LevelsMV = []int{300} },
		"level too high": func(s *SweepSpec) { s.LevelsMV = []int{900} },
		"level off step": func(s *SweepSpec) { s.LevelsMV = []int{510} },

		"point off-step vcc":             withPoint(func(p *SpecPoint) { p.Config.Vcc = 510 }),
		"point without store table":      withPoint(func(p *SpecPoint) { p.Config.Hierarchy.StoresPerCycle = 0 }),
		"point with short store table":   withPoint(func(p *SpecPoint) { p.Config.Hierarchy.MaxStabilize = 1 }),
		"point with few registers":       withPoint(func(p *SpecPoint) { p.Config.Scoreboard.Regs = 4 }),
		"point with odd cache sets":      withPoint(func(p *SpecPoint) { p.Config.Hierarchy.DL0.Sets = 48 }),
		"point with huge ul1":            withPoint(func(p *SpecPoint) { p.Config.Hierarchy.UL1.Sets = 1 << 24 }),
		"point with huge tlb":            withPoint(func(p *SpecPoint) { p.Config.Hierarchy.DTLB.Sets, p.Config.Hierarchy.DTLB.Ways = 1<<12, 64 }),
		"point with huge iq":             withPoint(func(p *SpecPoint) { p.Config.IQ.Size = 1 << 20 }),
		"point with huge bp":             withPoint(func(p *SpecPoint) { p.Config.Predictor.BPEntries = 1 << 24 }),
		"point with huge rsb":            withPoint(func(p *SpecPoint) { p.Config.Predictor.RSBEntries = 1 << 20 }),
		"point with huge fill buffer":    withPoint(func(p *SpecPoint) { p.Config.Hierarchy.FillBufferEntries = 1 << 20 }),
		"point with huge wcb":            withPoint(func(p *SpecPoint) { p.Config.Hierarchy.WCBEntries = 1 << 20 }),
		"point with huge store table":    withPoint(func(p *SpecPoint) { p.Config.Hierarchy.StoresPerCycle = 512 }),
		"point with overflowing stable":  withPoint(func(p *SpecPoint) { p.Config.Hierarchy.MaxStabilize = math.MaxInt }),
		"point with huge scoreboard":     withPoint(func(p *SpecPoint) { p.Config.Scoreboard.Regs = 1 << 20 }),
		"point with huge max cycles":     withPoint(func(p *SpecPoint) { p.Config.MaxCycles = 1 << 40 }),
		"point with negative max cycles": withPoint(func(p *SpecPoint) { p.Config.MaxCycles = -1 }),
		"point whose circuit allows no N": withPoint(func(p *SpecPoint) {
			params := circuit.DefaultParams()
			params.MaxStabilizeCycles = 0
			p.Config.Circuit = &params
		}),
		"point with unknown transform": withPoint(func(p *SpecPoint) { p.Traces = TraceSet{Transform: "shuffle", MinGap: 8} }),
		"point rescheduled at gap 0":   withPoint(func(p *SpecPoint) { p.Traces.MinGap = 0 }),
		"point rescheduled too far":    withPoint(func(p *SpecPoint) { p.Traces.MinGap = maxMinGap + 1 }),
		"point with gap, no transform": withPoint(func(p *SpecPoint) { p.Traces.Transform = "" }),
	} {
		t.Run(name, func(t *testing.T) {
			s := good
			mutate(&s)
			if err := s.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", s)
			}
		})
	}
}

// TestParseModes: round trip through the CLI list format, and rejection
// with the offending name in the error.
func TestParseModes(t *testing.T) {
	modes, err := ParseModes("baseline, iraw,faultybits,extrabypass")
	if err != nil {
		t.Fatal(err)
	}
	want := []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW, circuit.ModeFaultyBits, circuit.ModeExtraBypass}
	for i, m := range want {
		if modes[i] != m {
			t.Fatalf("ParseModes = %v, want %v", modes, want)
		}
	}
	if _, err := ParseModes("baseline,warp"); err == nil || !strings.Contains(err.Error(), "warp") {
		t.Fatalf("ParseModes err = %v, want mention of \"warp\"", err)
	}
}

// TestSweepLabelMatchesStream: the exported label builder and the internal
// sweep grid must agree — fault-injection rules and service cells address
// points by this string.
func TestSweepLabelMatchesStream(t *testing.T) {
	specs := (&Runner{}).SweepPoints(nil, []circuit.Mode{circuit.ModeIRAW}, []circuit.Millivolts{475})
	if got, want := specs[0].Label, SweepLabel(475, circuit.ModeIRAW); got != want {
		t.Fatalf("SweepPoints label %q != SweepLabel %q", got, want)
	}
}

// TestCellKeyMatchesJournal: RunCell journals under exactly the key
// CellKey predicts, so a scheduler that precomputes keys finds the
// worker's results.
func TestCellKeyMatchesJournal(t *testing.T) {
	spec := SweepSpec{InstsPerTrace: 2000, SeedsPerProfile: 1, Modes: []string{"iraw"}, LevelsMV: []int{500}}
	tr := spec.Traces()[0]
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)

	dir := t.TempDir()
	r := spec.NewRunner().WithJournal(dir)
	key, err := r.CellKey(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	u, err := r.RunCell(t.Context(), SweepLabel(500, circuit.ModeIRAW), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := u.Result
	if u.Replayed {
		t.Fatal("first run reported a journal replay")
	}
	if res == nil || res.Run.Instructions == 0 {
		t.Fatalf("RunCell result = %+v", res)
	}

	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ent, ok := jnl.Get(key)
	if !ok {
		t.Fatalf("journal has no entry under CellKey %s", key)
	}
	if ent.Result.Run != res.Run {
		t.Fatalf("journaled result differs: %+v vs %+v", ent.Result, res)
	}

	// Second run replays rather than re-simulating, bit-identical.
	u2, err := spec.NewRunner().WithJournal(dir).RunCell(t.Context(), "replay", cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	res2 := u2.Result
	if !u2.Replayed {
		t.Fatal("second run did not replay from the journal")
	}
	if res2.Run != res.Run || res2.Time != res.Time {
		t.Fatalf("replayed result differs: %+v vs %+v", res2, res)
	}
}

// TestCellKeyPinned pins the journal content address of one fixed (config,
// trace) pair, unsharded and auto-windowed, to the value recorded at
// EngineVersion lowvcc-engine-9: config hashing, trace hashing, the plan
// fields (including the literal mode=0) and core.EngineVersion all feed
// the key, and drift in any of them silently orphans every journaled
// cell, so a change here must be deliberate.
func TestCellKeyPinned(t *testing.T) {
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
		want string
	}{
		{"unsharded", workload.Suite(2000, 1)[0], "a4937956cef76313ca3110f65e2ed6c00fec1fdb0b397b6e7aa06cdfbd436fe6"},
		{"auto-windowed", workload.LongTrace(autoWindowThreshold+10_000, 5), "bcd0f7644e56c1430ebcaa65f29c2754ec082ab15445cfa568efffcb6db4c5b9"},
	} {
		got, err := (&Runner{}).CellKey(cfg, tc.tr)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: CellKey(%s) = %s, want %s", tc.name, tc.tr.Name, got, tc.want)
		}
	}
}

// TestSweepSpecExpandOrder: a spec's points are its (mode, level) grid,
// mode-major at the spec's width, then its explicit points; PointSpecs
// resolves each trace set against the suite.
func TestSweepSpecExpandOrder(t *testing.T) {
	spec := SweepSpec{InstsPerTrace: 1000, SeedsPerProfile: 1, Modes: []string{"baseline", "iraw"}, LevelsMV: []int{600, 500}, Width: 1,
		Points: []SpecPoint{{Label: "resched", Config: core.DefaultConfig(500, circuit.ModeIRAW), Traces: TraceSet{Transform: "reschedule", MinGap: 8}}}}
	want := append((&Runner{Width: 1}).SweepPoints(spec.Traces(), []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW}, []circuit.Millivolts{600, 500}),
		PointSpec{Label: "resched", Cfg: spec.Points[0].Config, Traces: TraceSet{Transform: "reschedule", MinGap: 8}.Resolve(spec.Traces())})
	got := spec.PointSpecs()
	if len(got) != len(want) || spec.Cells() != len(want)*len(spec.Traces()) {
		t.Fatalf("%d points, %d cells; want %d points", len(got), spec.Cells(), len(want))
	}
	for i := range want {
		if got[i].Label != want[i].Label || got[i].Cfg != want[i].Cfg || !sameTraces(got[i].Traces, want[i].Traces) {
			t.Errorf("point %d is %q, want %q", i, got[i].Label, want[i].Label)
		}
	}
	if !sameTraces(got[4].Traces[:1], []*trace.Trace{workload.Reschedule(spec.Traces()[0], 8)}) {
		t.Error("the rescheduled point does not run the rescheduled suite")
	}
}

// FuzzSweepSpec feeds hostile submissions through the daemon's admission
// path: JSON decoded with unknown fields rejected (as the server does),
// then Validate and Cells. Nothing may panic, every accepted point passes
// core's validation and the size bounds, and every accepted spec's Cells
// must equal the number of cells its expansion has.
func FuzzSweepSpec(f *testing.F) {
	for _, seed := range []string{
		`{"insts_per_trace":3000,"seeds_per_profile":1,"modes":["baseline","iraw"]}`,
		`{"insts_per_trace":3000,"seeds_per_profile":2,"modes":["faultybits","extrabypass"],"levels_mv":[500],"width":2}`,
		`{"insts_per_trace":20000,"seeds_per_profile":1,"modes":["baseline","iraw"],"levels_mv":[600,500,400],"width":4,"window_insts":5000}`,
		`{"insts_per_trace":1,"seeds_per_profile":64,"modes":[" iraw"],"levels_mv":[],"warm_insts":-1}`,
		`{"insts_per_trace":3000,"seeds_per_profile":1,"modes":["bogus"]}`,
		`{"insts_per_trace":3000,"seeds_per_profile":1,"modes":["iraw"],"width":9}`,
		`{"insts_per_trace":3000,"seeds_per_profile":1,"modes":["iraw"],"surprise":true}`,
		`{"insts_per_trace":-1}`, `[]`, `null`, ``,
		`{"insts_per_trace":3000,"seeds_per_profile":1,"modes":["iraw"],"levels_mv":[510]}`,
	} {
		f.Add([]byte(seed))
	}
	point := SpecPoint{Label: "p", Config: core.DefaultConfig(500, circuit.ModeIRAW), Traces: TraceSet{Transform: "reschedule", MinGap: 8}}
	for _, mutate := range []func(*SpecPoint){
		func(*SpecPoint) {},
		func(p *SpecPoint) { p.Traces = TraceSet{} },
		func(p *SpecPoint) { p.Config.Hierarchy.UL1.Sets = 1 << 24 },
		func(p *SpecPoint) { p.Config.IQ.Size = 1 << 20 },
		func(p *SpecPoint) { p.Traces.Transform = "bogus" },
	} {
		p := point
		mutate(&p)
		data, err := json.Marshal(SweepSpec{InstsPerTrace: 3000, SeedsPerProfile: 1, Modes: []string{"baseline"}, LevelsMV: []int{500}, Points: []SpecPoint{p}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec SweepSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil || spec.Validate() != nil {
			return
		}
		if _, err := spec.CircuitModes(); err != nil {
			t.Fatalf("accepted spec %+v has unparsable modes: %v", spec, err)
		}
		for _, p := range spec.Points {
			c, h := p.Config, p.Config.Hierarchy
			if err := c.Validate(); err != nil {
				t.Fatalf("accepted point %q fails core validation: %v", p.Label, err)
			}
			for _, b := range []cache.Config{h.IL0, h.DL0, h.UL1, h.ITLB, h.DTLB} {
				if b.Sets*b.Ways > maxCacheLines {
					t.Fatalf("accepted point %q has %d x %d lines in %s", p.Label, b.Sets, b.Ways, b.Name)
				}
			}
			if max(c.IQ.Size, c.Predictor.RSBEntries, h.FillBufferEntries, h.WCBEntries, c.Scoreboard.Regs,
				h.StoresPerCycle*(h.MaxStabilize+1)) > maxQueue || c.Predictor.BPEntries > maxBPEntries ||
				c.MaxCycles < 0 || c.MaxCycles > maxPointCycles {
				t.Fatalf("accepted point %q is out of bounds: %+v", p.Label, c)
			}
		}
		if spec.Cells() > 1<<16 {
			return // valid, but too large to expand on every fuzz iteration
		}
		// Expand over a one-instruction suite of the same shape: how many
		// cells a sweep has does not depend on its traces' length.
		small := spec
		small.InstsPerTrace = 1
		cells := 0
		for _, p := range small.PointSpecs() {
			cells += len(p.Traces)
		}
		if got := spec.Cells(); got != cells {
			t.Fatalf("spec %+v: Cells() = %d, expansion has %d cells", spec, got, cells)
		}
	})
}
