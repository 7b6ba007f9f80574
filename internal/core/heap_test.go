package core

import (
	"runtime"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/workload"
)

// TestCoreHeapBound: a core's retained heap after one run stays small. The
// seven memory-side port-hold calendars are 2 KiB bitmaps and the MSHR and
// oracle tables stay at working-set size, so this run retains about
// 165 KiB; one int64 stamp per calendar cycle (128 KiB per block) or
// unbounded MSHR/oracle records would cross the bound.
func TestCoreHeapBound(t *testing.T) {
	const bound = 800 << 10
	tr := workload.Generate(workload.MemBound(), 20000, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := MustNew(DefaultConfig(500, circuit.ModeIRAW))
	if _, err := c.Run(tr); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	if heap := int64(after.HeapAlloc) - int64(before.HeapAlloc); heap >= bound {
		t.Fatalf("core holds %d KiB of heap after one run, want < %d KiB", heap>>10, bound>>10)
	} else {
		t.Logf("core heap after one run: %d KiB", heap>>10)
	}
}
