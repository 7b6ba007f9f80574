package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

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
// structurally broken spec a client could submit.
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
	for name, mutate := range map[string]func(*SweepSpec){
		"zero insts":     func(s *SweepSpec) { s.InstsPerTrace = 0 },
		"huge insts":     func(s *SweepSpec) { s.InstsPerTrace = 1 << 40 },
		"zero seeds":     func(s *SweepSpec) { s.SeedsPerProfile = 0 },
		"no modes":       func(s *SweepSpec) { s.Modes = nil },
		"unknown mode":   func(s *SweepSpec) { s.Modes = []string{"turbo"} },
		"level too low":  func(s *SweepSpec) { s.LevelsMV = []int{300} },
		"level too high": func(s *SweepSpec) { s.LevelsMV = []int{900} },
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

// FuzzSweepSpec feeds hostile submissions through the daemon's admission
// path: JSON decoded with unknown fields rejected (as the server does),
// then Validate and Cells. Nothing may panic, and every accepted spec's
// Cells must equal the number of cells its sweep expands to.
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
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec SweepSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil || spec.Validate() != nil {
			return
		}
		modes, err := spec.CircuitModes()
		if err != nil {
			t.Fatalf("accepted spec %+v has unparsable modes: %v", spec, err)
		}
		if spec.Cells() > 1<<16 {
			return // valid, but too large to expand on every fuzz iteration
		}
		// Expand over a one-instruction suite of the same shape: how many
		// cells a sweep has does not depend on its traces' length.
		small := spec
		small.InstsPerTrace = 1
		cells := 0
		for _, p := range spec.NewRunner().SweepPoints(small.Traces(), modes, spec.Levels()) {
			cells += len(p.Traces)
		}
		if got := spec.Cells(); got != cells {
			t.Fatalf("spec %+v: Cells() = %d, expansion has %d cells", spec, got, cells)
		}
	})
}
