package core

import (
	"errors"
	"reflect"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

// runWindow runs one sample window as the sim runner does: a functional
// warm replay of tr's first measureFrom instructions, then the timed
// measured span.
func runWindow(c *Core, tr *trace.Trace, measureFrom int) (*Result, error) {
	if err := c.WarmReplay(tr, measureFrom); err != nil {
		return nil, err
	}
	return c.RunWarmed(tr, measureFrom)
}

// TestRunWindowZeroEqualsRun: a window measured from instruction 0 is
// exactly Run (with nothing to warm they must coincide bitwise).
func TestRunWindowZeroEqualsRun(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 8000, 3)
	for _, mode := range []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW} {
		cfg := DefaultConfig(500, mode)
		a, err := MustNew(cfg).Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWindow(MustNew(cfg), tr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: window 0 differs from Run(tr)", mode)
		}
	}
}

// TestRunWindowValidation: out-of-range window boundaries are rejected, by
// RunWarmed for the measured span and by WarmReplay for the prefix.
func TestRunWindowValidation(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 100, 1)
	c := MustNew(DefaultConfig(500, circuit.ModeBaseline))
	for _, from := range []int{-1, 100, 101} {
		if _, err := c.RunWarmed(tr, from); err == nil {
			t.Errorf("RunWarmed(tr, %d) accepted an out-of-range boundary", from)
		}
	}
	for _, n := range []int{-1, 101} {
		if err := c.WarmReplay(tr, n); err == nil {
			t.Errorf("WarmReplay(tr, %d) accepted an out-of-range prefix", n)
		}
	}
}

// TestMergeWindowResultsStitch: stitching the window results of a shard
// plan preserves instruction totals, recomputes Time from the stitched
// cycle count, and keeps the per-core DisabledLines constant un-summed.
func TestMergeWindowResultsStitch(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 9000, 2)
	cfg := DefaultConfig(450, circuit.ModeFaultyBits) // nonzero DisabledLines
	windows := trace.Shard(tr, 3000, 1000)
	if len(windows) != 3 {
		t.Fatalf("got %d windows, want 3", len(windows))
	}
	results := make([]*Result, len(windows))
	var cycles uint64
	for i, w := range windows {
		c := MustNew(cfg)
		res, err := runWindow(c, w.Trace, w.Warm)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
		cycles += res.Run.Cycles
	}
	st := MergeWindowResults(tr.Name, results)
	if st.TraceName != tr.Name {
		t.Errorf("TraceName %q, want %q", st.TraceName, tr.Name)
	}
	if got := st.Run.Instructions; got != uint64(len(tr.Insts)) {
		t.Errorf("stitched instructions %d, want %d", got, len(tr.Insts))
	}
	if st.Run.Cycles != cycles {
		t.Errorf("stitched cycles %d, want %d", st.Run.Cycles, cycles)
	}
	if want := float64(cycles) * st.Plan.CycleTime; st.Time != want {
		t.Errorf("stitched Time %v, want cycles x CycleTime = %v", st.Time, want)
	}
	if st.DL0.DisabledLines != results[0].DL0.DisabledLines {
		t.Errorf("DisabledLines summed across windows: %d vs per-window %d",
			st.DL0.DisabledLines, results[0].DL0.DisabledLines)
	}

	// Single-window stitch is the identity (plus the parent name).
	c := MustNew(cfg)
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	one := MergeWindowResults(tr.Name, []*Result{res})
	if !reflect.DeepEqual(one, res) {
		t.Error("single-window stitch differs from the window result")
	}
}

// TestStopCheck: an installed stop check aborts a run with its error, and
// removing it restores normal operation on the same core.
func TestStopCheck(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 8000, 4)
	c := MustNew(DefaultConfig(500, circuit.ModeIRAW))
	boom := errors.New("preempted")
	c.SetStopCheck(func() error { return boom })
	if _, err := c.Run(tr); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	c.SetStopCheck(nil)
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(tr); err != nil {
		t.Fatalf("run after removing stop check: %v", err)
	}
}
