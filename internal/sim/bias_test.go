package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

// TestFunctionalWarmShardingBias is the sharding acceptance test: on the
// production-style long trace, sample windows warmed with the default
// functional replay — full-history (warm=-1) via the checkpoint-backed
// default — must land within 1% of the unsharded cold pass they
// approximate, and the accuracy must not cost bitwise determinism.
func TestFunctionalWarmShardingBias(t *testing.T) {
	// A production-scale trace: bias is a property of warm-history length
	// against the suite's working sets, so the golden number is pinned at
	// the scale the acceptance names.
	tr := workload.LongTrace(700000, 11)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	ctx := context.Background()

	cold, err := core.MustNew(cfg).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	bias := func(r *core.Result) float64 {
		return 100 * (r.IPC() - cold.IPC()) / cold.IPC()
	}
	run := func() *core.Result {
		r := (&Runner{Workers: 4}).WithWindow(len(tr.Insts)/8, 0)
		per, _, err := r.RunPoint(ctx, cfg, []*trace.Trace{tr})
		if err != nil {
			t.Fatal(err)
		}
		return per[0]
	}

	fun := run()
	if fun.Run.Instructions != uint64(len(tr.Insts)) {
		t.Fatalf("stitch measured %d instructions, want %d", fun.Run.Instructions, len(tr.Insts))
	}
	fb := bias(fun)
	if math.Abs(fb) > 1 {
		t.Errorf("functional-warm sharding bias %+.2f%% exceeds the 1%% golden tolerance", fb)
	}

	// Determinism: the functional-warm stitch is worker- and repeat-
	// invariant.
	again := run()
	if !reflect.DeepEqual(fun, again) {
		t.Error("functional-warm sharded run is not deterministic")
	}
	r1 := (&Runner{Workers: 1}).WithWindow(len(tr.Insts)/8, 0)
	per, _, err := r1.RunPoint(ctx, cfg, []*trace.Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fun, per[0]) {
		t.Error("functional-warm sharded run depends on worker count")
	}
}
