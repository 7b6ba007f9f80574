package sim

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
)

// TestParallelSequentialEquivalence is the determinism guarantee of the
// sweep engine: one worker (forced via GOMAXPROCS=1, the truly sequential
// inline path) and a NumCPU-wide pool must produce bit-identical Result
// aggregates — IPC, cycles, stall breakdown, every counter — per point.
func TestParallelSequentialEquivalence(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 4000, SeedsPerProfile: 1}.Traces()
	modes := []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW, circuit.ModeFaultyBits}
	levels := []circuit.Millivolts{575, 500, 400}

	prev := runtime.GOMAXPROCS(1)
	seq, seqErr := (&Runner{}).Sweep(context.Background(), traces, modes, levels)
	runtime.GOMAXPROCS(prev)
	if seqErr != nil {
		t.Fatal(seqErr)
	}

	par, err := (&Runner{Workers: runtime.NumCPU()}).Sweep(context.Background(), traces, modes, levels)
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range modes {
		for _, v := range levels {
			s, p := seq[mode][v], par[mode][v]
			if s.Vcc != p.Vcc || s.Mode != p.Mode {
				t.Fatalf("%v %v: point metadata differs", mode, v)
			}
			if s.Agg.IPC() != p.Agg.IPC() {
				t.Errorf("%v %v: IPC differs: %v vs %v", mode, v, s.Agg.IPC(), p.Agg.IPC())
			}
			if !reflect.DeepEqual(s.Agg, p.Agg) {
				t.Errorf("%v %v: aggregates differ:\nseq: %+v\npar: %+v", mode, v, s.Agg, p.Agg)
			}
		}
	}
}

// TestRunPointWorkerCounts sweeps worker counts on one point: every pool
// size must agree with the single-worker result, per trace and aggregate.
func TestRunPointWorkerCounts(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 4000, SeedsPerProfile: 1}.Traces()
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	ref, refAgg, err := (&Runner{Workers: 1}).RunPoint(context.Background(), cfg, traces)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, runtime.NumCPU() + 1} {
		got, gotAgg, err := (&Runner{Workers: workers}).RunPoint(context.Background(), cfg, traces)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: per-trace results differ", workers)
		}
		if !reflect.DeepEqual(refAgg, gotAgg) {
			t.Errorf("workers=%d: aggregate differs", workers)
		}
	}
}

// TestRunnerCancellation: a cancelled context stops the pool and surfaces
// the context error.
func TestRunnerCancellation(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 4000, SeedsPerProfile: 1}.Traces()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, _, err := (&Runner{Workers: workers}).RunPoint(ctx, core.DefaultConfig(500, circuit.ModeIRAW), traces)
		if err != context.Canceled {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestRunnerDeterministicError: when several cells fail, the runner always
// reports the lowest-index one, regardless of worker count or scheduling.
func TestRunnerDeterministicError(t *testing.T) {
	traces := SuiteSpec{InstsPerTrace: 4000, SeedsPerProfile: 1}.Traces()
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	cfg.MaxCycles = 10 // every trace trips the deadlock watchdog
	want := "warmup " + traces[0].Name
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		_, _, err := (&Runner{Workers: workers}).RunPoint(context.Background(), cfg, traces)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("workers=%d: err = %v, want the first trace's failure (%q)", workers, err, want)
		}
	}
}

// TestForEachRunsEachJobOnce: every job runs exactly once.
func TestForEachRunsEachJobOnce(t *testing.T) {
	const n = 100
	var ran [n]atomic.Int32
	err := (&Runner{Workers: 4}).forEach(context.Background(), n, func(i int) error {
		ran[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Errorf("job %d ran %d times", i, got)
		}
	}
}
