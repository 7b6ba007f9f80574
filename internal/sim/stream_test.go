package sim

import (
	"context"
	"errors"
	"math/rand/v2"
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
	specs := (&Runner{}).SweepPoints(traces, streamModes, streamLevels)
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
	specs := (&Runner{}).SweepPoints(traces, streamModes, circuit.Levels())
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

// TestStreamLevelsMatchesSweep: every level a LevelFold releases as
// Collect's per-cell hook is bit-identical to the batch Sweep's grid
// entries at that level, and each level is released exactly once, in
// level order.
func TestStreamLevelsMatchesSweep(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 3000, SeedsPerProfile: 1}.Traces()
	r := &Runner{Workers: 2}
	batch, err := r.Sweep(context.Background(), traces, streamModes, streamLevels)
	if err != nil {
		t.Fatal(err)
	}
	var got []circuit.Millivolts
	fold := NewLevelFold(streamModes, streamLevels, len(traces),
		func(v circuit.Millivolts, pts map[circuit.Mode]*Point, fails map[circuit.Mode]*CellError) error {
			got = append(got, v)
			if len(fails) != 0 || len(pts) != len(streamModes) {
				t.Errorf("%v: %d points and %d failures, want %d points", v, len(pts), len(fails), len(streamModes))
			}
			for _, m := range streamModes {
				if !reflect.DeepEqual(batch[m][v], pts[m]) {
					t.Errorf("%v %v: streamed point differs from batch grid", m, v)
				}
			}
			return nil
		})
	if _, err := r.Collect(context.Background(), r.SweepPoints(traces, streamModes, streamLevels), fold.Add); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, streamLevels) {
		t.Fatalf("levels released %v, want each of %v once in order", got, streamLevels)
	}
}

// levelCall is one recorded LevelFunc invocation.
type levelCall struct {
	V     circuit.Millivolts
	Pts   map[circuit.Mode]*Point
	Fails map[circuit.Mode]*CellError
}

// foldAll feeds updates through a fresh LevelFold and records its calls.
func foldAll(t *testing.T, modes []circuit.Mode, levels []circuit.Millivolts, traces int, updates []PointUpdate) []levelCall {
	t.Helper()
	var calls []levelCall
	fold := NewLevelFold(modes, levels, traces, func(v circuit.Millivolts, pts map[circuit.Mode]*Point, fails map[circuit.Mode]*CellError) error {
		calls = append(calls, levelCall{v, pts, fails})
		return nil
	})
	for _, u := range updates {
		if err := fold.Add(u); err != nil {
			t.Fatalf("Add(point %d, trace %d): %v", u.Point, u.Trace, err)
		}
	}
	if len(calls) != len(levels) {
		t.Fatalf("released %d of %d levels", len(calls), len(levels))
	}
	return calls
}

// TestLevelFoldOrderIndependent: one sweep's updates — including an
// isolated failure — fed in several random arrival orders release the same
// levels, in level order, with identical rows.
func TestLevelFoldOrderIndependent(t *testing.T) {
	traces := resilienceSuite().Traces()
	specs := (&Runner{}).SweepPoints(traces, streamModes, streamLevels)
	plan := NewFaultPlan(FaultRule{Label: specs[1].Label, TraceName: traces[2].Name, Kind: FaultError})
	r := &Runner{Workers: 2, inject: plan, AllowPartial: true}
	var updates []PointUpdate
	for u := range r.Stream(context.Background(), specs) {
		updates = append(updates, u)
	}

	want := foldAll(t, streamModes, streamLevels, len(traces), updates)
	for i, c := range want {
		if c.V != streamLevels[i] {
			t.Fatalf("call %d released %v, want %v", i, c.V, streamLevels[i])
		}
	}
	if ce := want[1].Fails[circuit.ModeBaseline]; ce == nil || ce.Trace != 2 {
		t.Fatalf("level %v fails = %v, want baseline's trace-2 failure", want[1].V, want[1].Fails)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for perm := 0; perm < 5; perm++ {
		shuffled := append([]PointUpdate(nil), updates...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := foldAll(t, streamModes, streamLevels, len(traces), shuffled); !reflect.DeepEqual(got, want) {
			t.Fatalf("permutation %d: level calls differ from in-order arrival", perm)
		}
	}
}

// TestLevelFoldLowestTraceFailure: a point whose traces 2 and 0 both fail
// reports trace 0 whatever order the cells arrive in.
func TestLevelFoldLowestTraceFailure(t *testing.T) {
	modes := []circuit.Mode{circuit.ModeIRAW}
	levels := []circuit.Millivolts{500}
	cellErr := func(tr int) PointUpdate {
		return PointUpdate{Trace: tr, Err: &CellError{Trace: tr, Err: errors.New("boom")}}
	}
	ok := PointUpdate{Trace: 1, Result: &core.Result{}}
	orders := [][]PointUpdate{
		{cellErr(0), ok, cellErr(2)}, {cellErr(0), cellErr(2), ok},
		{ok, cellErr(0), cellErr(2)}, {ok, cellErr(2), cellErr(0)},
		{cellErr(2), ok, cellErr(0)}, {cellErr(2), cellErr(0), ok},
	}
	for i, order := range orders {
		calls := foldAll(t, modes, levels, 3, order)
		if ce := calls[0].Fails[circuit.ModeIRAW]; ce == nil || ce.Trace != 0 || len(calls[0].Pts) != 0 {
			t.Errorf("order %d: fails = %v, pts = %v; want only trace 0's failure", i, calls[0].Fails, calls[0].Pts)
		}
	}
}

// TestLevelFoldRejectsBadCells: out-of-range indices, a repeated cell and
// a cell with neither result nor error come back as errors, never panics,
// and a terminal update returns its own error.
func TestLevelFoldRejectsBadCells(t *testing.T) {
	res := &core.Result{}
	for _, u := range []PointUpdate{
		{Point: -1, Trace: 0, Result: res},
		{Point: 4, Trace: 0, Result: res},
		{Point: 0, Trace: -1, Result: res},
		{Point: 0, Trace: 3, Result: res},
		{Point: 1, Trace: 1},
	} {
		fold := NewLevelFold(streamModes, streamLevels, 3, func(circuit.Millivolts, map[circuit.Mode]*Point, map[circuit.Mode]*CellError) error {
			return nil
		})
		if err := fold.Add(u); err == nil {
			t.Errorf("Add(point %d, trace %d, result %v) accepted", u.Point, u.Trace, u.Result != nil)
		}
	}

	fold := NewLevelFold(streamModes, streamLevels, 3, func(circuit.Millivolts, map[circuit.Mode]*Point, map[circuit.Mode]*CellError) error {
		return nil
	})
	if err := fold.Add(PointUpdate{Point: 2, Trace: 1, Result: res}); err != nil {
		t.Fatal(err)
	}
	if err := fold.Add(PointUpdate{Point: 2, Trace: 1, Result: res}); err == nil {
		t.Error("a cell landing twice was accepted")
	}
	stop := errors.New("stream failed")
	if err := fold.Add(PointUpdate{Point: -1, Trace: -1, Err: stop}); !errors.Is(err, stop) {
		t.Errorf("terminal update returned %v, want its own error", err)
	}
}
