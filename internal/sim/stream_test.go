package sim

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

var streamModes = []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW}
var streamLevels = []circuit.Millivolts{500, 400}

// TestStreamingBatchEquivalence is the tentpole guarantee: for every
// (worker count x window configuration) combination, Sweep — now a
// collector over Stream — produces bit-identical output to the one-worker
// run of the same window configuration; and both no-windowing spellings
// (WindowInsts 0 and WindowInsts >= trace length) equal each other, i.e.
// the exact pre-streaming batch semantics.
func TestStreamingBatchEquivalence(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 4000, SeedsPerProfile: 1}.Traces()

	type cfg struct{ win, warm int }
	configs := []cfg{
		{0, 0},       // windowing off
		{1 << 20, 0}, // window >= trace: must equal windowing off bitwise
		{1500, 0},    // sharded, default warm (win/4)
		{1500, 500},  // sharded, explicit warm
		{997, 100},   // sharded, uneven tail window
	}
	sweeps := make(map[cfg]map[circuit.Mode]map[circuit.Millivolts]*Point)
	for _, c := range configs {
		var ref map[circuit.Mode]map[circuit.Millivolts]*Point
		for _, workers := range []int{1, 3, runtime.NumCPU() + 2} {
			r := (&Runner{Workers: workers}).WithWindow(c.win, c.warm)
			got, err := r.Sweep(context.Background(), traces, streamModes, streamLevels)
			if err != nil {
				t.Fatalf("win=%d warm=%d workers=%d: %v", c.win, c.warm, workers, err)
			}
			if ref == nil {
				ref = got
				continue
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("win=%d warm=%d: workers=%d output differs from workers=1", c.win, c.warm, workers)
			}
		}
		sweeps[c] = ref
	}
	// The two no-windowing spellings must agree bitwise.
	if !reflect.DeepEqual(sweeps[cfg{0, 0}], sweeps[cfg{1 << 20, 0}]) {
		t.Error("WindowInsts >= trace length does not reproduce the unsharded path")
	}
}

// TestShardStitchGolden pins the stitched sample-window numbers against
// whole-trace runs. With a single window the stitch must be bit-identical
// to the unsharded warm-up + measure run. With real sharding the stitch
// approximates a single production pass over the long trace: it must
// preserve the instruction count and clock plan exactly, be deterministic
// across repeats, and keep IPC within the documented sampling tolerance of
// the cold whole-trace pass — the bias is pessimistic (each window re-pays
// cold-start misses its warm-up prefix cannot cover) and shrinks as
// windows grow, which the test also asserts.
func TestShardStitchGolden(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 96000, 7)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)

	whole, wholeAgg, err := (&Runner{Workers: 2}).RunPoint(context.Background(), cfg, []*trace.Trace{tr})
	if err != nil {
		t.Fatal(err)
	}

	// Single window covering the trace: the "stitch" is the whole-trace run.
	one, oneAgg, err := (&Runner{Workers: 2}).WithWindow(1<<20, 0).RunPoint(context.Background(), cfg, []*trace.Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole, one) || !reflect.DeepEqual(wholeAgg, oneAgg) {
		t.Fatal("single-window shard-stitch is not bit-identical to the whole-trace run")
	}

	// The sharded reference: one cold pass over the whole trace (the
	// production-trace semantics sample windows approximate).
	cold, err := core.MustNew(cfg).Run(tr)
	if err != nil {
		t.Fatal(err)
	}

	shard := func(win, warm int) []*core.Result {
		s, _, err := (&Runner{Workers: 4}).WithWindow(win, warm).RunPoint(context.Background(), cfg, []*trace.Trace{tr})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := shard(12000, 3000)
	s2 := shard(12000, 3000)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("sharded run is not deterministic across repeats")
	}
	if got, want := s1[0].Run.Instructions, cold.Run.Instructions; got != want {
		t.Errorf("stitched instruction count %d != whole-trace %d", got, want)
	}
	if s1[0].TraceName != tr.Name {
		t.Errorf("stitched TraceName %q, want parent %q", s1[0].TraceName, tr.Name)
	}
	if s1[0].Plan != cold.Plan {
		t.Error("stitched clock plan differs from whole-trace plan")
	}

	bias := func(r *core.Result) float64 { return (r.IPC() - cold.IPC()) / cold.IPC() }
	small, large := bias(s1[0]), bias(shard(48000, 12000)[0])
	if small > 0.01 {
		t.Errorf("small-window bias %+.2f%% should be pessimistic", 100*small)
	}
	if large < small {
		t.Errorf("bias must shrink with window size: %+.2f%% (48k) vs %+.2f%% (12k)", 100*large, 100*small)
	}
	if large < -0.15 || large > 0.15 {
		t.Errorf("48k-window IPC bias %+.2f%% outside the 15%% sampling tolerance", 100*large)
	}
}

// TestStreamEmitsIncrementally proves the stream is actually streaming:
// the first cell update arrives while later cells are still unfinished
// (Done strictly less than Total on the first receive).
func TestStreamEmitsIncrementally(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 3000, SeedsPerProfile: 1}.Traces()
	specs := (&Runner{}).sweepSpecs(traces, streamModes, streamLevels)
	r := &Runner{Workers: 1}
	first := true
	for u := range r.Stream(context.Background(), specs) {
		if u.Err != nil {
			t.Fatal(u.Err)
		}
		if first {
			first = false
			if u.Done >= u.Total {
				t.Fatalf("first update reports Done=%d Total=%d: nothing streamed", u.Done, u.Total)
			}
		}
	}
	if first {
		t.Fatal("stream produced no updates")
	}
}

// TestStreamCancellation proves the stream drains promptly on context
// cancellation: cancelling after the first update must close the channel
// quickly (the stop check preempts in-flight simulations) and surface
// context.Canceled to batch collectors.
func TestStreamCancellation(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 20000, SeedsPerProfile: 2}.Traces()
	specs := (&Runner{}).sweepSpecs(traces, streamModes, circuit.Levels())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ch := (&Runner{Workers: 2}).Stream(ctx, specs)
	if _, ok := <-ch; !ok {
		t.Fatal("stream closed before the first update")
	}
	cancel()
	start := time.Now()
	for range ch {
		// drain whatever was already in flight
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("stream took %v to drain after cancellation", waited)
	}

	// The batch collector path reports the context error.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, _, err := (&Runner{Workers: 2}).RunPoint(ctx2, core.DefaultConfig(500, circuit.ModeIRAW), traces); err != context.Canceled {
		t.Fatalf("cancelled RunPoint err = %v, want context.Canceled", err)
	}
}

// TestPointTimeout: an absurdly small per-point budget aborts the sweep
// with a descriptive timeout error from inside the run loop.
func TestPointTimeout(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 60000, SeedsPerProfile: 1}.Traces()
	r := &Runner{Workers: 1, PointTimeout: time.Nanosecond}
	_, _, err := r.RunPoint(context.Background(), core.DefaultConfig(500, circuit.ModeIRAW), traces)
	if err == nil || !strings.Contains(err.Error(), "point timeout") {
		t.Fatalf("err = %v, want a point-timeout error", err)
	}
}

// TestProgressCallback: the callback fires once per cell with strictly
// increasing Done, both unsharded and sharded, and batch collectors honor
// it.
func TestProgressCallback(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 3000, SeedsPerProfile: 1}.Traces()
	for _, win := range []int{0, 1000} {
		var seen []int
		r := &Runner{Workers: 3, WindowInsts: win, Progress: func(u PointUpdate) {
			if u.Err != nil {
				t.Errorf("progress saw error: %v", u.Err)
			}
			seen = append(seen, u.Done)
		}}
		if _, _, err := r.RunPoint(context.Background(), core.DefaultConfig(500, circuit.ModeBaseline), traces); err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(traces) {
			t.Fatalf("win=%d: progress fired %d times for %d cells", win, len(seen), len(traces))
		}
		for i, d := range seen {
			if d != i+1 {
				t.Fatalf("win=%d: Done sequence %v is not strictly increasing from 1", win, seen)
			}
		}
	}
}

// TestSweepStreamMatchesBatch: every point emitted by SweepStream is
// bit-identical to the batch Sweep's grid entry, and the stream covers the
// whole grid exactly once.
func TestSweepStreamMatchesBatch(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 3000, SeedsPerProfile: 1}.Traces()
	batch, err := (&Runner{Workers: 2}).Sweep(context.Background(), traces, streamModes, streamLevels)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for u := range (&Runner{Workers: 2}).SweepStream(context.Background(), traces, streamModes, streamLevels) {
		if u.Err != nil {
			t.Fatal(u.Err)
		}
		got++
		if !reflect.DeepEqual(batch[u.Mode][u.Vcc], u.Point) {
			t.Errorf("%v %v: streamed point differs from batch grid", u.Mode, u.Vcc)
		}
	}
	if want := len(streamModes) * len(streamLevels); got != want {
		t.Fatalf("stream emitted %d points, want %d", got, want)
	}
}
