package iq

import (
	"testing"
	"testing/quick"
)

func TestAllocPopFIFO(t *testing.T) {
	q := New(DefaultConfig())
	for i := 0; i < 10; i++ {
		if !q.Alloc(int64(i), uint64(100+i)) {
			t.Fatalf("alloc %d rejected", i)
		}
	}
	if q.Occupancy() != 10 {
		t.Fatalf("occupancy = %d", q.Occupancy())
	}
	for i := 0; i < 10; i++ {
		e := q.PopOldest()
		if e.Payload != uint64(100+i) {
			t.Fatalf("pop %d = %d, want %d", i, e.Payload, 100+i)
		}
	}
}

func TestAllocRejectsWhenFull(t *testing.T) {
	q := New(Config{Size: 4, ICI: 2, AI: 2})
	for i := 0; i < 4; i++ {
		if !q.Alloc(0, uint64(i)) {
			t.Fatalf("alloc %d rejected early", i)
		}
	}
	if q.Alloc(0, 99) {
		t.Fatal("alloc into full queue accepted")
	}
	q.PopOldest()
	if !q.Alloc(1, 99) {
		t.Fatal("alloc after pop rejected")
	}
}

// TestGateThreshold verifies the Section 4.2 rule: with ICI=2, AI=2, N=1
// issue needs occupancy >= 4.
func TestGateThreshold(t *testing.T) {
	q := New(DefaultConfig())
	q.SetStabilizeCycles(1)
	for occ := 0; occ < 6; occ++ {
		want := occ >= 4
		if got := q.MayIssue(); got != want {
			t.Errorf("occupancy %d: MayIssue = %v, want %v", occ, got, want)
		}
		wantBlocked := occ > 0 && occ < 4
		if got := q.GateBlocked(); got != wantBlocked {
			t.Errorf("occupancy %d: GateBlocked = %v, want %v", occ, got, wantBlocked)
		}
		q.Alloc(int64(occ), uint64(occ))
	}
}

func TestGateDisabledAtN0(t *testing.T) {
	q := New(DefaultConfig())
	q.SetStabilizeCycles(0) // "stall issue?" held at 0
	if q.MayIssue() {
		t.Fatal("empty queue may not issue")
	}
	q.Alloc(0, 1)
	if !q.MayIssue() {
		t.Fatal("single instruction must be issuable with the gate disabled")
	}
	if q.GateBlocked() {
		t.Fatal("GateBlocked with N=0")
	}
}

func TestGateReconfiguration(t *testing.T) {
	q := New(DefaultConfig())
	for i := 0; i < 5; i++ {
		q.Alloc(int64(i), uint64(i))
	}
	q.SetStabilizeCycles(2) // threshold 2 + 2*2 = 6
	if q.MayIssue() {
		t.Fatal("occupancy 5 < threshold 6 must block")
	}
	q.SetStabilizeCycles(1) // threshold 4
	if !q.MayIssue() {
		t.Fatal("occupancy 5 >= threshold 4 must pass")
	}
}

// TestGateImpliesStability is the central property (Section 4.2): whenever
// the gate passes, the ICI oldest entries have stabilized — for any
// interleaving of bounded allocation, drain-NOOP injection and issue, at
// every N the controller can set. Allocation is capped at AI per cycle, as
// the hardware's allocation stage guarantees, and a gate-blocked cycle that
// allocates nothing injects NOOPs, as the pipeline does.
func TestGateImpliesStability(t *testing.T) {
	for n := 1; n <= 4; n++ {
		f := func(script []byte) bool {
			q := New(DefaultConfig())
			q.SetStabilizeCycles(n)
			cycle := int64(0)
			for _, b := range script {
				cycle++
				// Issue phase (reads happen before this cycle's allocations).
				if q.MayIssue() {
					if !q.EntriesStable(cycle) {
						return false // gate passed but an entry was unstable
					}
					issues := int(b>>4) & 3 // 0..3, capped to ICI below
					if issues > q.Config().ICI {
						issues = q.Config().ICI
					}
					for i := 0; i < issues && q.Occupancy() > 0; i++ {
						q.PopOldest()
					}
				}
				// Allocation phase: at most AI per cycle.
				allocs := int(b) & 3
				if allocs > q.Config().AI {
					allocs = q.Config().AI
				}
				allocated := 0
				for i := 0; i < allocs; i++ {
					if q.Alloc(cycle, uint64(b)) {
						allocated++
					}
				}
				if allocated == 0 && q.GateBlocked() {
					q.InjectNOOPs(cycle)
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("N=%d: %v", n, err)
		}
	}
}

// TestGateImpliesStabilityN2 repeats the property at N=2 (the "different
// technology nodes" case) where the threshold grows to ICI + 2*AI = 6.
func TestGateImpliesStabilityN2(t *testing.T) {
	q := New(DefaultConfig())
	q.SetStabilizeCycles(2)
	cycle := int64(0)
	for step := 0; step < 1000; step++ {
		cycle++
		if q.MayIssue() {
			if !q.EntriesStable(cycle) {
				t.Fatalf("cycle %d: gate passed with unstable oldest entries", cycle)
			}
			q.PopOldest()
		}
		// Bursty allocation: alternate 2 and 0 per cycle, injecting drain
		// NOOPs on a gate-blocked empty cycle.
		if step%2 == 0 {
			q.Alloc(cycle, 1)
			q.Alloc(cycle, 2)
		} else if q.GateBlocked() {
			q.InjectNOOPs(cycle)
		}
	}
}

// TestFigure9OccupancyMatches holds the hardware bit-trick arithmetic to
// the reference occupancy across wrap-arounds.
func TestFigure9OccupancyMatches(t *testing.T) {
	q := New(DefaultConfig())
	q.SetStabilizeCycles(1)
	cycle := int64(0)
	for step := 0; step < 5000; step++ {
		cycle++
		if step%3 != 0 && q.Occupancy() > 0 {
			q.PopOldest()
		}
		if step%7 != 2 {
			q.Alloc(cycle, uint64(step))
		}
		if q.Occupancy() < q.Config().Size { // full is ambiguous in 5-bit form
			if got, want := q.Figure9Occupancy(), q.Occupancy(); got != want {
				t.Fatalf("step %d: Figure9Occupancy = %d, want %d", step, got, want)
			}
		}
	}
}

func TestInjectNOOPs(t *testing.T) {
	q := New(DefaultConfig())
	q.SetStabilizeCycles(1)
	q.Alloc(0, 1) // occupancy 1 < threshold 4: stuck without injection
	if q.MayIssue() {
		t.Fatal("should be gate-blocked")
	}
	got := q.InjectNOOPs(1)
	if got != 2 { // AI*N = 2
		t.Fatalf("injected %d NOOPs, want 2", got)
	}
	if q.Occupancy() != 3 {
		t.Fatalf("occupancy = %d, want 3", q.Occupancy())
	}
	// One more round reaches the threshold; the real instruction drains.
	q.InjectNOOPs(2)
	if !q.MayIssue() {
		t.Fatal("still blocked after NOOP injection")
	}
	e := q.PopOldest()
	if e.NOOP || e.Payload != 1 {
		t.Fatalf("drained entry = %+v, want the real instruction", e)
	}
	if q.NOOPsInjected != 4 {
		t.Fatalf("NOOPsInjected = %d, want 4", q.NOOPsInjected)
	}
}

func TestInjectNOOPsRespectsCapacity(t *testing.T) {
	q := New(Config{Size: 4, ICI: 2, AI: 2})
	q.SetStabilizeCycles(2) // wants AI = 2 NOOPs this cycle
	q.Alloc(0, 1)
	q.Alloc(0, 2)
	q.Alloc(0, 3)
	if got := q.InjectNOOPs(1); got != 1 {
		t.Fatalf("injected %d, want 1 (only one slot free)", got)
	}
}

func TestOldestWindow(t *testing.T) {
	q := New(DefaultConfig())
	for i := 0; i < 5; i++ {
		q.Alloc(0, uint64(i))
	}
	if e := q.Oldest(0); e == nil || e.Payload != 0 {
		t.Fatalf("Oldest(0) = %+v", e)
	}
	if e := q.Oldest(1); e == nil || e.Payload != 1 {
		t.Fatalf("Oldest(1) = %+v", e)
	}
	// Only the ICI oldest are visible to the issue stage.
	if e := q.Oldest(2); e != nil {
		t.Fatalf("Oldest(2) = %+v, want nil (ICI=2)", e)
	}
	if e := q.Oldest(-1); e != nil {
		t.Fatal("Oldest(-1) returned an entry")
	}
}

func TestFlush(t *testing.T) {
	q := New(DefaultConfig())
	for i := 0; i < 8; i++ {
		q.Alloc(0, uint64(i))
	}
	q.Flush()
	if q.Occupancy() != 0 {
		t.Fatalf("occupancy after flush = %d", q.Occupancy())
	}
	if q.MayIssue() {
		t.Fatal("flushed queue may not issue")
	}
}

func TestPopEmptyPanics(t *testing.T) {
	q := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	q.PopOldest()
}

func TestNewValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Size: 0, ICI: 2, AI: 2},
		{Size: 32, ICI: 0, AI: 2},
		{Size: 32, ICI: 2, AI: 0},
		{Size: 33, ICI: 2, AI: 2}, // not a power of two
	} {
		func() {
			defer func() { recover() }()
			New(cfg)
			t.Errorf("config %+v accepted", cfg)
		}()
	}
}
