package core

import (
	"math"
	"testing"

	"lowvcc/internal/rng"
)

// TestWheelDispatchAndNextAfter drives the wheel with random events —
// including far-future ones that share buckets across laps — and checks,
// against a flat reference slice, that bucket filtering yields exactly the
// due events at every cycle and that nextAfter is exact whenever queried.
func TestWheelDispatchAndNextAfter(t *testing.T) {
	src := rng.New(42)
	var w wheel
	w.clear()

	pending := map[int64]int{} // due-cycle -> count, the reference model
	refNext := func(cycle int64) int64 {
		best := int64(math.MaxInt64)
		for at := range pending {
			if at > cycle && at < best {
				best = at
			}
		}
		return best
	}

	for cycle := int64(1); cycle <= 3000; cycle++ {
		// Dispatch due events the way the core does.
		got := 0
		b := w.bucket(cycle)
		for i := 0; i < len(*b); {
			if (*b)[i].at != cycle {
				i++
				continue
			}
			(*b)[i] = (*b)[len(*b)-1]
			*b = (*b)[:len(*b)-1]
			w.pending--
			got++
		}
		w.noteDrained(cycle)
		if got != pending[cycle] {
			t.Fatalf("cycle %d: dispatched %d events, want %d", cycle, got, pending[cycle])
		}
		delete(pending, cycle)

		// Random pushes: near-future, same-bucket-next-lap, and far-future.
		for k := src.Intn(3); k > 0; k-- {
			var at int64
			switch src.Intn(3) {
			case 0:
				at = cycle + 1 + int64(src.Intn(8))
			case 1:
				at = cycle + wheelSize + int64(src.Intn(4)) // next lap, same bucket zone
			default:
				at = cycle + 1 + int64(src.Intn(10*wheelSize)) // several laps out
			}
			w.push(wake{at: at})
			pending[at]++
		}

		if want, got := refNext(cycle), w.nextAfter(cycle); got != want {
			t.Fatalf("cycle %d: nextAfter = %d, want %d", cycle, got, want)
		}
	}
}

// TestWheelClearKeepsNothing: clear must drop every pending event (the
// Reset reuse path).
func TestWheelClearKeepsNothing(t *testing.T) {
	var w wheel
	w.clear()
	w.push(wake{at: 5})
	w.push(wake{at: 500})
	w.clear()
	if w.pending != 0 || w.occ != 0 {
		t.Fatalf("clear left pending=%d occ=%b", w.pending, w.occ)
	}
	if got := w.nextAfter(0); got != math.MaxInt64 {
		t.Fatalf("nextAfter on empty wheel = %d", got)
	}
}
