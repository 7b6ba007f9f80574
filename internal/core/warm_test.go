package core

import (
	"math"
	"reflect"
	"testing"

	"lowvcc/internal/cache"
	"lowvcc/internal/circuit"
	"lowvcc/internal/rng"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

// TestWarmFunctionalVsUnshardedFuzz drives functional sample windows over
// random (profile, seed, boundary) combinations against the unsharded
// reference: the trace split at a random boundary into a cold first window
// and a functionally warmed second one must stitch to exactly the trace's
// instructions, land within the golden sampling tolerance of Run over the
// whole trace (functional warm-up reproduces the prefix's architectural
// state; only the boundary's cold pipeline differs), and consume no
// corrupt data. A boundary at 0 is the single-window plan, bit-identical
// to Run.
func TestWarmFunctionalVsUnshardedFuzz(t *testing.T) {
	src := rng.New(0xF00DF00D)
	profiles := []workload.Profile{
		workload.SpecInt(), workload.SpecFP(), workload.Server(), workload.Kernel(),
	}
	modes := []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW}
	const tol = 0.15
	for i := 0; i < 12; i++ {
		prof := profiles[src.Intn(len(profiles))]
		n := 4000 + src.Intn(8000)
		tr := workload.Generate(prof, n, 1+src.Uint64n(1000))
		mode := modes[src.Intn(len(modes))]
		cfg := DefaultConfig(circuit.Millivolts(450+25*src.Intn(6)), mode)
		boundary := src.Intn(n)

		whole, err := MustNew(cfg).Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		second, err := runWindow(MustNew(cfg), tr, boundary)
		if err != nil {
			t.Fatal(err)
		}
		if boundary == 0 {
			if !reflect.DeepEqual(second, whole) {
				t.Fatalf("%s boundary=0: the window is not bit-identical to Run", tr.Name)
			}
			continue
		}
		first, err := MustNew(cfg).Run(&trace.Trace{Name: tr.Name, Insts: tr.Insts[:boundary]})
		if err != nil {
			t.Fatal(err)
		}
		st := MergeWindowResults(tr.Name, []*Result{first, second})
		if st.Run.Instructions != uint64(n) {
			t.Fatalf("%s boundary=%d: stitch measured %d instructions, want %d",
				tr.Name, boundary, st.Run.Instructions, n)
		}
		if d := math.Abs(st.IPC()-whole.IPC()) / whole.IPC(); d > tol {
			t.Errorf("%s %v boundary=%d: stitched IPC %.4f vs unsharded %.4f (%.1f%% > %.0f%%)",
				tr.Name, mode, boundary, st.IPC(), whole.IPC(), 100*d, 100*tol)
		}
		// Avoidance must hold regardless of how the window was warmed.
		if second.CorruptConsumed != 0 || second.IntegrityErrors != 0 {
			t.Errorf("%s boundary=%d: functional warm-up leaked corruption (%d consumed, %d integrity)",
				tr.Name, boundary, second.CorruptConsumed, second.IntegrityErrors)
		}
	}
}

// TestWarmReplayDeterministic: two identical cores after the same replay
// produce bit-identical measured windows.
func TestWarmReplayDeterministic(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 9000, 21)
	cfg := DefaultConfig(500, circuit.ModeIRAW)
	a, err := runWindow(MustNew(cfg), tr, 6000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWindow(MustNew(cfg), tr, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("a functionally warmed window is not deterministic")
	}
}

// TestWarmReplayTimingIndependence: the hierarchy state WarmReplay leaves
// behind is a function of the access sequence only — cores at different
// voltages and modes (hence different clock plans, stabilization counts and
// memory latencies) end up with identical cache and TLB contents.
func TestWarmReplayTimingIndependence(t *testing.T) {
	tr := workload.Generate(workload.Server(), 12000, 5)
	a := MustNew(DefaultConfig(700, circuit.ModeBaseline))
	b := MustNew(DefaultConfig(450, circuit.ModeIRAW))
	if err := a.WarmReplay(tr, len(tr.Insts)); err != nil {
		t.Fatal(err)
	}
	if err := b.WarmReplay(tr, len(tr.Insts)); err != nil {
		t.Fatal(err)
	}
	blocks := []struct {
		name   string
		ca, cb interface {
			LineAddrAt(set, way int) (uint64, bool)
		}
		sets, ways int
	}{
		{"IL0", a.mem.IL0, b.mem.IL0, a.mem.IL0.Config().Sets, a.mem.IL0.Config().Ways},
		{"DL0", a.mem.DL0, b.mem.DL0, a.mem.DL0.Config().Sets, a.mem.DL0.Config().Ways},
		{"UL1", a.mem.UL1, b.mem.UL1, a.mem.UL1.Config().Sets, a.mem.UL1.Config().Ways},
		{"ITLB", a.mem.ITLB, b.mem.ITLB, a.mem.ITLB.Config().Sets, a.mem.ITLB.Config().Ways},
		{"DTLB", a.mem.DTLB, b.mem.DTLB, a.mem.DTLB.Config().Sets, a.mem.DTLB.Config().Ways},
	}
	for _, blk := range blocks {
		for s := 0; s < blk.sets; s++ {
			for w := 0; w < blk.ways; w++ {
				la, va := blk.ca.LineAddrAt(s, w)
				lb, vb := blk.cb.LineAddrAt(s, w)
				if la != lb || va != vb {
					t.Fatalf("%s (%d,%d): warm state differs across timing configs: (%x,%v) vs (%x,%v)",
						blk.name, s, w, la, va, lb, vb)
				}
			}
		}
	}
}

// TestWarmReplayLeavesTimingStateUntouched: a replay moves no clock, holds
// no ports, leaves the STable empty and the statistics at zero.
func TestWarmReplayLeavesTimingStateUntouched(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 8000, 9)
	c := MustNew(DefaultConfig(500, circuit.ModeIRAW))
	if err := c.WarmReplay(tr, len(tr.Insts)); err != nil {
		t.Fatal(err)
	}
	m := c.mem
	if s := (cache.HierarchyStats{}); m.Stats() != s {
		t.Errorf("warm replay moved hierarchy statistics: %+v", m.Stats())
	}
	for _, blk := range []struct {
		name string
		st   interface{ Busy(int64) bool }
	}{{"IL0", m.IL0}, {"DL0", m.DL0}, {"UL1", m.UL1}, {"ITLB", m.ITLB}, {"DTLB", m.DTLB}} {
		for cyc := int64(0); cyc < 16; cyc++ {
			if blk.st.Busy(cyc) {
				t.Errorf("%s ports held at cycle %d after warm replay", blk.name, cyc)
			}
		}
	}
	for _, e := range m.STab.Entries() {
		if e.Valid {
			t.Error("warm replay left a live STable entry")
		}
	}
	if got := m.IL0.Stats(); got.Accesses != 0 || got.Fills != 0 {
		t.Errorf("warm replay counted IL0 activity: %+v", got)
	}
}

// TestRunWindowShardEdgeCases exercises trace.Shard's boundary plans at the
// window level (WarmReplay + RunWarmed): window=1 (every instruction its
// own window), warm longer than the available prefix (capped), full-prefix
// warm (warm < 0) and window >= len (the unsharded identity).
func TestRunWindowShardEdgeCases(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 600, 13)
	cfg := DefaultConfig(500, circuit.ModeIRAW)
	n := len(tr.Insts)

	// window >= len: a single window whose Trace IS the parent, and whose
	// execution is bit-identical to Run.
	plan := trace.Shard(tr, n, 100)
	if len(plan) != 1 || plan[0].Trace != tr || plan[0].Warm != 0 {
		t.Fatalf("window>=len plan: %+v", plan[0])
	}
	whole, err := MustNew(cfg).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWindow(MustNew(cfg), plan[0].Trace, plan[0].Warm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole, res) {
		t.Fatal("window>=len run differs from Run")
	}

	// warm > start: every window's prefix is capped at its start, so
	// window 0 is cold and the others carry their full history.
	plan = trace.Shard(tr, 100, 1<<20)
	for i, w := range plan {
		if want := w.Start; w.Warm != want {
			t.Fatalf("window %d: warm %d, want capped prefix %d", i, w.Warm, want)
		}
	}
	// warm < 0 selects the same full-prefix plan.
	if full := trace.Shard(tr, 100, -1); !reflect.DeepEqual(full, plan) {
		t.Fatal("warm<0 plan differs from the warm>len cap")
	}

	// window = 1: n windows, each measuring exactly one instruction; the
	// stitched totals must cover the trace exactly.
	plan = trace.Shard(tr, 1, 50)
	if len(plan) != n {
		t.Fatalf("window=1 made %d windows, want %d", len(plan), n)
	}
	results := make([]*Result, len(plan))
	c := MustNew(cfg)
	for i, w := range plan {
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
		r, err := runWindow(c, w.Trace, w.Warm)
		if err != nil {
			t.Fatal(err)
		}
		if r.Run.Instructions != 1 {
			t.Fatalf("window %d measured %d instructions, want 1", i, r.Run.Instructions)
		}
		results[i] = r
	}
	st := MergeWindowResults(tr.Name, results)
	if st.Run.Instructions != uint64(n) {
		t.Fatalf("window=1 stitch measured %d instructions, want %d", st.Run.Instructions, n)
	}
}
