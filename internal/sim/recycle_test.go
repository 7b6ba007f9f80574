package sim

import (
	"context"
	"runtime"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/workload"
)

// tinyCell is a sweep daemon lease's shape: one unsharded
// 5000-instruction cell on a one-worker runner.
func tinyCell() (*Runner, core.Config, string) {
	return &Runner{Workers: 1}, core.DefaultConfig(500, circuit.ModeIRAW), "iraw-500mV"
}

// BenchmarkRunCellTiny times one tiny cell through RunCell, core recycling
// included; allocs/op and B/op show what a cell costs beyond the engine.
//
//	go test -run '^$' -bench RunCellTiny ./internal/sim
func BenchmarkRunCellTiny(b *testing.B) {
	r, cfg, label := tinyCell()
	tr := workload.Generate(workload.SpecInt(), 5000, 1)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := r.RunCell(context.Background(), label, cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunCellRecyclesCore: a repeat RunCell takes the core the previous
// clean window returned and resets it in place, so the cell allocates a
// small fraction of one core's blocks (about 680 KB). A sync.Pool may drop
// any single core (a GC, or the race detector's deliberate drops), so the
// guard holds the cheapest of a few repeats.
func TestRunCellRecyclesCore(t *testing.T) {
	r, cfg, label := tinyCell()
	tr := workload.Generate(workload.SpecInt(), 5000, 1)
	run := func() {
		if _, err := r.RunCell(context.Background(), label, cfg, tr); err != nil {
			t.Fatal(err)
		}
	}
	run()
	least := ^uint64(0)
	var before, after runtime.MemStats
	for range 8 {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 64<<10 {
		t.Errorf("a repeat RunCell allocated %d bytes at best, want under 64 KiB", least)
	}
}
