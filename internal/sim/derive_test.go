package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

// streamAll runs specs through Stream and returns every cell's update,
// indexed [point][trace].
func streamAll(t *testing.T, r *Runner, specs []PointSpec) [][]PointUpdate {
	t.Helper()
	out := make([][]PointUpdate, len(specs))
	for p := range specs {
		out[p] = make([]PointUpdate, len(specs[p].Traces))
	}
	for u := range r.Stream(context.Background(), specs) {
		if u.Point < 0 {
			t.Fatalf("terminal update: %v", u.Err)
		}
		out[u.Point][u.Trace] = u
	}
	return out
}

func resultJSON(t *testing.T, res *core.Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamMatchesRunCellAlone is the reference for engine-input
// grouping: every cell of a stream over four designs, levels from 700 to
// 400 mV and widths 1, 2 and 4, sharded and unsharded, equals byte for
// byte the Result of RunCell on that cell alone — which has no sibling to
// derive from, so it always simulates.
func TestStreamMatchesRunCellAlone(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 2400, SeedsPerProfile: 1}.Traces()[:2]
	modes := []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW, circuit.ModeExtraBypass, circuit.ModeFaultyBits}
	levels := []circuit.Millivolts{700, 650, 600, 500, 400}
	for _, window := range []int{-1, 1000} {
		derived := 0
		for _, width := range []int{1, 2, 4} {
			r := (&Runner{Width: width}).WithWindow(window, 0)
			specs := r.SweepPoints(traces, modes, levels)
			got := streamAll(t, r, specs)
			for p := range specs {
				for ti, tr := range specs[p].Traces {
					u := got[p][ti]
					if u.Derived != "" {
						derived++
					}
					ref, err := r.RunCell(context.Background(), specs[p].Label, specs[p].Cfg, tr)
					if err != nil {
						t.Fatal(err)
					}
					if ref.Derived != "" || ref.Windows != u.Windows {
						t.Fatalf("window %d: RunCell %s %s: derived %q, %d windows (stream: %d)", window, specs[p].Label, tr.Name, ref.Derived, ref.Windows, u.Windows)
					}
					if !bytes.Equal(resultJSON(t, u.Result), resultJSON(t, ref.Result)) {
						t.Fatalf("window %d width %d: %s %s (derived from %q) differs from RunCell alone", window, width, specs[p].Label, tr.Name, u.Derived)
					}
				}
			}
		}
		// Per width and trace: iraw at 700/650/600 and extrabypass at
		// 700/650 are timed as baseline.
		if want := 3 * len(traces) * 5; derived != want {
			t.Errorf("window %d: %d derived cells, want %d", window, derived, want)
		}
	}
}

// TestDerivedFollowersFailWithTheirLeader: a leader's failure is each
// follower's failure, reported under the follower's own identity in
// partial mode, and as the leader's (lowest-index) error in strict mode.
func TestDerivedFollowersFailWithTheirLeader(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 3000, 1)
	var specs []PointSpec
	for _, mode := range []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW} {
		cfg := core.DefaultConfig(600, mode)
		cfg.MaxCycles = 50 // trips the deadlock watchdog
		specs = append(specs, PointSpec{Label: SweepLabel(600, mode), Cfg: cfg, Traces: []*trace.Trace{tr}})
	}

	r := &Runner{AllowPartial: true}
	got := streamAll(t, r, specs)
	var causes []error
	for p, want := range []string{"sweep 600mV baseline", "sweep 600mV iraw"} {
		var ce *CellError
		if !errors.As(got[p][0].Err, &ce) {
			t.Fatalf("point %d: error %v, want a *CellError", p, got[p][0].Err)
		}
		if ce.Label != want || ce.Point != p || ce.Trace != 0 || got[p][0].Label != want {
			t.Errorf("point %d: failure identity (%q, point %d, trace %d), want (%q, %d, 0)", p, ce.Label, ce.Point, ce.Trace, want, p)
		}
		causes = append(causes, ce.Err)
	}
	if causes[0] != causes[1] {
		t.Errorf("follower failed on its own (%v), not with its leader (%v)", causes[1], causes[0])
	}

	_, err := (&Runner{}).Collect(context.Background(), specs, nil)
	var ce *CellError
	if !errors.As(err, &ce) || ce.Point != 0 {
		t.Fatalf("strict mode: %v, want the leader's (point 0) error", err)
	}
}

// TestDeriveFromJournaledSibling: a cell whose group already has a
// journaled member derives from that entry without simulating, is
// journaled under its own key, and equals a simulated run.
func TestDeriveFromJournaledSibling(t *testing.T) {
	tr := workload.Generate(workload.Server(), 3000, 2)
	base := PointSpec{Label: SweepLabel(650, circuit.ModeBaseline), Cfg: core.DefaultConfig(650, circuit.ModeBaseline), Traces: []*trace.Trace{tr}}
	iraw := PointSpec{Label: SweepLabel(650, circuit.ModeIRAW), Cfg: core.DefaultConfig(650, circuit.ModeIRAW), Traces: []*trace.Trace{tr}}
	r := (&Runner{}).WithJournal(t.TempDir())

	streamAll(t, r, []PointSpec{base})
	// The journaled member has the higher index: the cell derives from it
	// anyway rather than simulating.
	got := streamAll(t, r, []PointSpec{iraw, base})
	if u := got[0][0]; u.Derived != base.Label || u.Replayed {
		t.Fatalf("iraw cell: derived %q, replayed %v; want derived from %q", u.Derived, u.Replayed, base.Label)
	}
	if !got[1][0].Replayed {
		t.Fatal("baseline cell was not replayed")
	}
	ref, err := (&Runner{}).RunCell(context.Background(), iraw.Label, iraw.Cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, got[0][0].Result), resultJSON(t, ref.Result)) {
		t.Fatal("derived result differs from a simulated one")
	}
	again := streamAll(t, r, []PointSpec{iraw})
	if u := again[0][0]; !u.Replayed || !bytes.Equal(resultJSON(t, u.Result), resultJSON(t, ref.Result)) {
		t.Fatalf("derived cell not journaled under its own key (replayed %v)", u.Replayed)
	}
}
