package sim

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/journal"
	"lowvcc/internal/workload"
)

// resilienceSuite is the small fixed workload every resilience test (and
// the crash-resume child process) shares, so parent and child agree on
// trace names and journal keys.
func resilienceSuite() SuiteSpec { return SuiteSpec{InstsPerTrace: 2000, SeedsPerProfile: 1} }

// TestPanicIsolationStrict: an injected panic in one cell surfaces as the
// stream's terminal *CellError — with the cell's identity, the Panicked
// flag and the recovered stack — instead of killing the process.
func TestPanicIsolationStrict(t *testing.T) {
	traces := resilienceSuite().Traces()
	specs := (&Runner{}).SweepPoints(traces, streamModes, streamLevels)
	victim := specs[1] // baseline @ 400mV
	plan := NewFaultPlan(FaultRule{
		Label: victim.Label, TraceName: victim.Traces[0].Name,
		Kind: FaultPanic, Times: 1,
	})
	r := &Runner{Workers: 2, inject: plan}
	_, err := r.Sweep(context.Background(), traces, streamModes, streamLevels)
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a *CellError", err)
	}
	if !ce.Panicked || len(ce.Stack) == 0 {
		t.Errorf("CellError = %+v, want Panicked with a captured stack", ce)
	}
	if ce.Label != victim.Label || ce.TraceName != victim.Traces[0].Name {
		t.Errorf("CellError identity = (%q, %q), want (%q, %q)",
			ce.Label, ce.TraceName, victim.Label, victim.Traces[0].Name)
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Errorf("error %q does not mention the panic", err)
	}
}

// TestPanicIsolationPartial: with AllowPartial, an injected panic costs
// exactly its own cell — every other operating point completes
// bit-identical to a fault-free run, and the failure comes back as a
// one-cell *PartialError.
func TestPanicIsolationPartial(t *testing.T) {
	traces := resilienceSuite().Traces()
	clean, err := (&Runner{Workers: 2}).Sweep(context.Background(), traces, streamModes, streamLevels)
	if err != nil {
		t.Fatal(err)
	}

	specs := (&Runner{}).SweepPoints(traces, streamModes, streamLevels)
	victim := specs[2] // iraw @ 500mV
	plan := NewFaultPlan(FaultRule{
		Label: victim.Label, TraceName: victim.Traces[0].Name,
		Kind: FaultPanic, Times: 1,
	})
	r := &Runner{Workers: 2, inject: plan, AllowPartial: true}
	grid, err := r.Sweep(context.Background(), traces, streamModes, streamLevels)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PartialError", err)
	}
	if len(pe.Cells) != 1 || !pe.Cells[0].Panicked {
		t.Fatalf("PartialError = %+v, want exactly one panicked cell", pe)
	}
	failed := 0
	for mode, byVcc := range clean {
		for vcc, want := range byVcc {
			got, ok := grid[mode][vcc]
			if !ok {
				failed++
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v %v: surviving point differs from the fault-free run", mode, vcc)
			}
		}
	}
	if failed != 1 {
		t.Errorf("%d operating points missing, want exactly the panicked one", failed)
	}
}

// TestSweepPartialErrorCountsCells: an allow-partial sweep with one faulty
// trace reports Total in cells and lists every failed cell — one per
// operating point — in (point, trace) order.
func TestSweepPartialErrorCountsCells(t *testing.T) {
	traces := resilienceSuite().Traces()
	plan := NewFaultPlan(FaultRule{TraceName: traces[1].Name, Kind: FaultError})
	r := &Runner{Workers: 2, inject: plan, AllowPartial: true}
	grid, err := r.Sweep(context.Background(), traces, streamModes, streamLevels)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PartialError", err)
	}
	points := len(streamModes) * len(streamLevels)
	if want := points * len(traces); pe.Total != want {
		t.Errorf("PartialError.Total = %d, want %d cells", pe.Total, want)
	}
	if len(pe.Cells) != points {
		t.Fatalf("PartialError lists %d cells, want %d", len(pe.Cells), points)
	}
	for i, ce := range pe.Cells {
		if ce.Point != i || ce.Trace != 1 {
			t.Errorf("cell %d = (point %d, trace %d), want (%d, 1)", i, ce.Point, ce.Trace, i)
		}
	}
	for mode, byVcc := range grid {
		if len(byVcc) != 0 {
			t.Errorf("%v: %d points in the grid, want none (every point lost trace 1)", mode, len(byVcc))
		}
	}
}

// TestRetryTransient pins the bounded-retry policy: transient faults heal
// within the budget (and the healed result is bit-identical to a clean
// run), exhaust the budget with the attempt count recorded, and never
// retry when the budget is zero.
func TestRetryTransient(t *testing.T) {
	traces := resilienceSuite().Traces()[:1]
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	clean, _, err := (&Runner{Workers: 1}).RunPoint(context.Background(), cfg, traces)
	if err != nil {
		t.Fatal(err)
	}

	// Two injected transient failures, two retries: attempt 3 succeeds.
	plan := NewFaultPlan(FaultRule{Kind: FaultTransient, Times: 2})
	healed, _, err := (&Runner{Workers: 1, inject: plan, Retries: 2}).
		RunPoint(context.Background(), cfg, traces)
	if err != nil {
		t.Fatalf("healed run failed: %v", err)
	}
	if !reflect.DeepEqual(healed, clean) {
		t.Error("result after transient retries differs from a clean run")
	}

	// Unlimited transient failures exhaust the budget: Retries+1 attempts.
	plan = NewFaultPlan(FaultRule{Kind: FaultTransient})
	_, _, err = (&Runner{Workers: 1, inject: plan, Retries: 2}).
		RunPoint(context.Background(), cfg, traces)
	var ce *CellError
	if !errors.As(err, &ce) || ce.Attempts != 3 {
		t.Fatalf("err = %v, want a *CellError after 3 attempts", err)
	}
	if !IsTransient(err) {
		t.Error("exhausted transient failure lost its transient marker")
	}

	// Zero budget: permanent on the first transient failure.
	plan = NewFaultPlan(FaultRule{Kind: FaultTransient, Times: 1})
	_, _, err = (&Runner{Workers: 1, inject: plan}).
		RunPoint(context.Background(), cfg, traces)
	if !errors.As(err, &ce) || ce.Attempts != 1 {
		t.Fatalf("err = %v, want a first-attempt *CellError with Retries=0", err)
	}

	// Permanent faults never consume retries.
	plan = NewFaultPlan(FaultRule{Kind: FaultError, Times: 1})
	_, _, err = (&Runner{Workers: 1, inject: plan, Retries: 5}).
		RunPoint(context.Background(), cfg, traces)
	if !errors.As(err, &ce) || ce.Attempts != 1 {
		t.Fatalf("err = %v, want a permanent failure on attempt 1 despite retries", err)
	}
}

// TestJournalReplayBitIdentical: a journaled sweep replays entirely from
// disk on the next run — for any worker count — and the replayed grid is
// bit-identical to the simulated one.
func TestJournalReplayBitIdentical(t *testing.T) {
	traces := resilienceSuite().Traces()
	dir := t.TempDir()
	first, err := (&Runner{Workers: 2}).WithJournal(dir).
		Sweep(context.Background(), traces, streamModes, streamLevels)
	if err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(j.Keys()); n != len(streamModes)*len(streamLevels)*len(traces) {
		t.Fatalf("journal holds %d entries, want one per cell", n)
	}

	for _, workers := range []int{1, 4} {
		replayed, simulated := 0, 0
		r := &Runner{Workers: workers, JournalDir: dir, Progress: func(u PointUpdate) {
			if u.Replayed {
				replayed++
			} else {
				simulated++
			}
		}}
		again, err := r.Sweep(context.Background(), traces, streamModes, streamLevels)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if simulated != 0 || replayed != len(streamModes)*len(streamLevels)*len(traces) {
			t.Errorf("workers=%d: %d replayed + %d simulated, want pure replay", workers, replayed, simulated)
		}
		if !reflect.DeepEqual(again, first) {
			t.Errorf("workers=%d: replayed grid differs from the simulated one", workers)
		}
	}
}

// TestJournalKeySensitivity: changing anything a Result depends on —
// config, windowing plan — must miss the journal, not replay stale
// numbers.
func TestJournalKeySensitivity(t *testing.T) {
	traces := resilienceSuite().Traces()[:1]
	dir := t.TempDir()
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	if _, _, err := (&Runner{Workers: 1}).WithJournal(dir).
		RunPoint(context.Background(), cfg, traces); err != nil {
		t.Fatal(err)
	}
	countReplays := func(r *Runner) int {
		replayed := 0
		r.Progress = func(u PointUpdate) {
			if u.Replayed {
				replayed++
			}
		}
		if _, _, err := r.RunPoint(context.Background(), cfg, traces); err != nil {
			t.Fatal(err)
		}
		return replayed
	}
	if n := countReplays((&Runner{Workers: 1}).WithJournal(dir)); n != 1 {
		t.Fatalf("identical re-run replayed %d cells, want 1", n)
	}
	// A different windowing plan is a different result: must re-simulate.
	if n := countReplays((&Runner{Workers: 1}).WithJournal(dir).WithWindow(500, 100)); n != 0 {
		t.Errorf("changed window plan still replayed %d cells", n)
	}
	// A different operating point likewise.
	other := core.DefaultConfig(400, circuit.ModeIRAW)
	r := (&Runner{Workers: 1}).WithJournal(dir)
	replayed := 0
	r.Progress = func(u PointUpdate) {
		if u.Replayed {
			replayed++
		}
	}
	if _, _, err := r.RunPoint(context.Background(), other, traces); err != nil {
		t.Fatal(err)
	}
	if replayed != 0 {
		t.Errorf("changed config still replayed %d cells", replayed)
	}
}

// TestTruncatedJournalWriteResimulates: a torn journal write (crash
// mid-Put, injected via FaultTruncateJournal) is detected by the integrity
// check on the next run, which re-simulates that cell — and still lands
// bit-identical.
func TestTruncatedJournalWriteResimulates(t *testing.T) {
	traces := resilienceSuite().Traces()
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	dir := t.TempDir()
	clean, _, err := (&Runner{Workers: 2}).RunPoint(context.Background(), cfg, traces)
	if err != nil {
		t.Fatal(err)
	}

	plan := NewFaultPlan(FaultRule{TraceName: traces[0].Name, Kind: FaultTruncateJournal, Times: 1})
	if _, _, err := (&Runner{Workers: 2, JournalDir: dir, inject: plan}).
		RunPoint(context.Background(), cfg, traces); err != nil {
		t.Fatal(err)
	}

	replayed, simulated := 0, 0
	r := &Runner{Workers: 2, JournalDir: dir, Progress: func(u PointUpdate) {
		if u.Replayed {
			replayed++
		} else {
			simulated++
		}
	}}
	again, _, err := r.RunPoint(context.Background(), cfg, traces)
	if err != nil {
		t.Fatal(err)
	}
	if simulated != 1 || replayed != len(traces)-1 {
		t.Errorf("%d simulated + %d replayed, want exactly the torn cell re-simulated", simulated, replayed)
	}
	if !reflect.DeepEqual(again, clean) {
		t.Error("recovery from a torn journal write changed results")
	}
}

// TestCrashResumeHelper is the child half of TestCrashResume: it runs a
// journaled sweep with a FaultExit rule on the last cell, so the process
// dies mid-sweep exactly like a kill -9 after journaling a prefix of the
// grid. Skipped unless spawned by the parent test.
func TestCrashResumeHelper(t *testing.T) {
	if os.Getenv("LOWVCC_CRASH_HELPER") != "1" {
		t.Skip("helper process for TestCrashResume")
	}
	workers, _ := strconv.Atoi(os.Getenv("LOWVCC_CRASH_WORKERS"))
	traces := resilienceSuite().Traces()
	specs := (&Runner{}).SweepPoints(traces, streamModes, streamLevels)
	last := specs[len(specs)-1]
	plan := NewFaultPlan(FaultRule{
		Label: last.Label, TraceName: last.Traces[len(last.Traces)-1].Name,
		Kind: FaultExit, Times: 1,
	})
	r := &Runner{Workers: workers, JournalDir: os.Getenv("LOWVCC_CRASH_JOURNAL"), inject: plan}
	_, _ = r.Sweep(context.Background(), traces, streamModes, streamLevels)
	// The fault must have killed the process above; exiting 0 tells the
	// parent it never fired.
	os.Exit(0)
}

// TestCrashResume is the crash-resume equivalence guarantee at the process
// level: a sweep killed mid-run (child process dies on FaultExit, exactly
// like kill -9) and re-invoked against the same journal produces output
// bit-identical to an uninterrupted run — for multiple worker counts, with
// the journaled prefix replayed rather than re-simulated.
func TestCrashResume(t *testing.T) {
	traces := resilienceSuite().Traces()
	ref, err := (&Runner{Workers: 2}).Sweep(context.Background(), traces, streamModes, streamLevels)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=TestCrashResumeHelper$")
		cmd.Env = append(os.Environ(),
			"LOWVCC_CRASH_HELPER=1",
			"LOWVCC_CRASH_JOURNAL="+dir,
			"LOWVCC_CRASH_WORKERS="+strconv.Itoa(workers),
		)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 3 {
			t.Fatalf("workers=%d: child exited err=%v (want code 3), output:\n%s", workers, err, out)
		}
		j, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := len(j.Keys())
		if n == 0 || n >= len(streamModes)*len(streamLevels)*len(traces) {
			t.Fatalf("workers=%d: crash left %d journaled cells, want a strict non-empty prefix", workers, n)
		}

		replayed := 0
		r := &Runner{Workers: workers, JournalDir: dir, Progress: func(u PointUpdate) {
			if u.Replayed {
				replayed++
			}
		}}
		resumed, err := r.Sweep(context.Background(), traces, streamModes, streamLevels)
		if err != nil {
			t.Fatalf("workers=%d: resume failed: %v", workers, err)
		}
		if replayed != n {
			t.Errorf("workers=%d: resume replayed %d cells, journal held %d", workers, replayed, n)
		}
		if !reflect.DeepEqual(resumed, ref) {
			t.Errorf("workers=%d: resumed sweep is not bit-identical to the uninterrupted run", workers)
		}
	}
}

// TestStreamCancelNoGoroutineLeak: cancelling mid-stream, repeatedly,
// leaves no worker or producer goroutines behind (counting harness; the
// count must settle back to its pre-stream level).
func TestStreamCancelNoGoroutineLeak(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 20000, SeedsPerProfile: 1}.Traces()
	specs := (&Runner{}).SweepPoints(traces, streamModes, circuit.Levels())
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		ch := (&Runner{Workers: 4}).Stream(ctx, specs)
		if _, ok := <-ch; !ok {
			cancel()
			t.Fatal("stream closed before the first update")
		}
		cancel()
		for range ch {
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if now := runtime.NumGoroutine(); now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancelled streams", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStreamLevelsPartialRows: with AllowPartial, a failed operating point
// arrives in the level's fails map of a LevelFold fed by Collect —
// identity intact for FAIL(reason) rendering — while the level's
// surviving modes and all other levels keep their points, and Collect
// reports the failure as a *PartialError.
func TestStreamLevelsPartialRows(t *testing.T) {
	traces := resilienceSuite().Traces()
	specs := (&Runner{}).SweepPoints(traces, streamModes, streamLevels)
	victim := specs[1] // baseline @ 400mV
	plan := NewFaultPlan(FaultRule{Label: victim.Label, Kind: FaultError})
	r := &Runner{Workers: 2, inject: plan, AllowPartial: true}

	type row struct {
		pts   int
		fails int
	}
	rows := make(map[circuit.Millivolts]row)
	fold := NewLevelFold(streamModes, streamLevels, len(traces),
		func(v circuit.Millivolts, pts map[circuit.Mode]*Point, fails map[circuit.Mode]*CellError) error {
			rows[v] = row{pts: len(pts), fails: len(fails)}
			if ce := fails[circuit.ModeBaseline]; ce != nil {
				if ce.Label != victim.Label || ce.Reason(32) == "" {
					t.Errorf("fail cell = %+v, want victim identity and a reason", ce)
				}
			}
			return nil
		})
	if _, err := r.Collect(context.Background(), specs, fold.Add); !errors.As(err, new(*PartialError)) {
		t.Fatalf("Collect err = %v, want a *PartialError", err)
	}
	if got := rows[500]; got.pts != 2 || got.fails != 0 {
		t.Errorf("level 500 = %+v, want both modes healthy", got)
	}
	if got := rows[400]; got.pts != 1 || got.fails != 1 {
		t.Errorf("level 400 = %+v, want one healthy mode and one FAIL", got)
	}
}

// TestRunPointPartialSlots: the batch collector in partial mode returns
// the surviving per-trace results (failed slots nil, aggregate nil) plus a
// deterministic *PartialError.
func TestRunPointPartialSlots(t *testing.T) {
	traces := resilienceSuite().Traces()
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	clean, _, err := (&Runner{Workers: 2}).RunPoint(context.Background(), cfg, traces)
	if err != nil {
		t.Fatal(err)
	}
	plan := NewFaultPlan(FaultRule{TraceName: traces[1].Name, Kind: FaultError})
	results, agg, err := (&Runner{Workers: 2, inject: plan, AllowPartial: true}).
		RunPoint(context.Background(), cfg, traces)
	var pe *PartialError
	if !errors.As(err, &pe) || len(pe.Cells) != 1 || pe.Cells[0].Trace != 1 {
		t.Fatalf("err = %v, want a one-cell *PartialError for trace 1", err)
	}
	if agg != nil {
		t.Error("partial run returned an aggregate over an incomplete trace set")
	}
	for i := range traces {
		switch {
		case i == 1 && results[i] != nil:
			t.Error("failed cell's slot is not nil")
		case i != 1 && !reflect.DeepEqual(results[i], clean[i]):
			t.Errorf("surviving trace %d differs from the clean run", i)
		}
	}
}

// TestJournaledRunCellsCloseFiles: every Stream closes the journal it
// opened, so 20 journaled RunCells in one process, each writing an entry,
// leave the number of open file descriptors where it was.
func TestJournaledRunCellsCloseFiles(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd on this platform")
		}
		return len(ents)
	}
	r := (&Runner{Workers: 1}).WithJournal(t.TempDir())
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	before := fds()
	for seed := uint64(1); seed <= 20; seed++ {
		u, err := r.RunCell(context.Background(), "fd", cfg, workload.Generate(workload.SpecInt(), 500, seed))
		if err != nil || u.Replayed {
			t.Fatalf("cell %d: err %v, replayed %v; want a fresh journaled cell", seed, err, u.Replayed)
		}
	}
	if after := fds(); after != before {
		t.Errorf("20 journaled cells changed the open descriptors from %d to %d", before, after)
	}
}
