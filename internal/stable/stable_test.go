package stable

import "testing"

// paper-sized table: one store per cycle, N=1 (the "2 cycles to stabilize"
// example of Section 4.4): two entries.
func paperTable() *Table {
	t := New(1, 1)
	t.SetStabilizeCycles(1)
	return t
}

func TestPaperSizing(t *testing.T) {
	tab := paperTable()
	if tab.Size() != 2 {
		t.Fatalf("Size = %d, want 2 (paper example)", tab.Size())
	}
	if tab.Active() != 2 {
		t.Fatalf("Active = %d, want 2", tab.Active())
	}
}

func TestNoMatch(t *testing.T) {
	tab := paperTable()
	tab.Insert(10, 0x1000, 3, 42)
	res := tab.Probe(11, 0x2000, 7) // different set
	if res.Kind != MatchNone {
		t.Fatalf("Kind = %v, want none", res.Kind)
	}
	if tab.Stats().ReplayedStores != 0 {
		t.Fatal("no-match probe replayed stores")
	}
}

func TestFullMatchForwards(t *testing.T) {
	tab := paperTable()
	tab.Insert(10, 0x1000, 3, 42)
	res := tab.Probe(11, 0x1000, 3)
	if res.Kind != MatchFull {
		t.Fatalf("Kind = %v, want full", res.Kind)
	}
	if res.Data != 42 {
		t.Fatalf("forwarded data = %d, want 42", res.Data)
	}
	if len(res.Replay) != 1 {
		t.Fatalf("len(Replay) = %d, want 1", len(res.Replay))
	}
	s := tab.Stats()
	if s.FullMatches != 1 || s.Forwards != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSetOnlyMatch(t *testing.T) {
	tab := paperTable()
	tab.Insert(10, 0x1000, 3, 42)
	res := tab.Probe(11, 0x1040, 3) // same set, different word
	if res.Kind != MatchSet {
		t.Fatalf("Kind = %v, want set", res.Kind)
	}
	if len(res.Replay) != 1 {
		t.Fatalf("len(Replay) = %d, want 1", len(res.Replay))
	}
	if tab.Stats().SetMatches != 1 {
		t.Fatalf("stats = %+v", tab.Stats())
	}
}

// TestEntryLifetime: a store committed at cycle c is probeable during its
// danger window (c..c+N) and gone once the DL0 entry is readable (c+N+1).
func TestEntryLifetime(t *testing.T) {
	tab := paperTable() // N=1
	tab.Insert(10, 0x1000, 3, 42)
	if res := tab.Probe(11, 0x1000, 3); res.Kind != MatchFull {
		t.Fatalf("cycle 11 (danger window): Kind = %v, want full", res.Kind)
	}
	// The probe replayed the store at cycle 11, renewing its window; use a
	// fresh table to check pure expiry.
	tab2 := paperTable()
	tab2.Insert(10, 0x1000, 3, 42)
	if res := tab2.Probe(12, 0x1000, 3); res.Kind != MatchNone {
		t.Fatalf("cycle 12 (stabilized): Kind = %v, want none", res.Kind)
	}
}

// TestReplayReexecution: a probe hands back the matching stores (oldest
// first) and invalidates their entries — the caller re-executes them as
// fresh stores ("those repeated store actions further update STable to
// keep it consistent"). Re-inserting restores coverage with a fresh
// window.
func TestReplayReexecution(t *testing.T) {
	tab := paperTable()
	tab.Insert(10, 0x1000, 3, 42)
	res := tab.Probe(11, 0x1040, 3) // set match: replay at cycle 11
	if len(res.Replay) != 1 || res.Replay[0].Addr != 0x1000 {
		t.Fatalf("Replay = %+v, want the original store", res.Replay)
	}
	// The matched entry was consumed; the caller re-inserts it.
	if r2 := tab.Probe(11, 0x1000, 3); r2.Kind != MatchNone {
		t.Fatalf("entry still present after consumption: %v", r2.Kind)
	}
	tab.Insert(11, res.Replay[0].Addr, res.Replay[0].Set, res.Replay[0].Data)
	if r3 := tab.Probe(12, 0x1000, 3); r3.Kind != MatchFull {
		t.Fatalf("cycle 12 after re-insert: Kind = %v, want full", r3.Kind)
	}
}

// TestReplayOrderOldestFirst: replayed stores come back in age order.
func TestReplayOrderOldestFirst(t *testing.T) {
	tab := New(2, 1) // 4 entries, two stores per cycle
	tab.SetStabilizeCycles(1)
	tab.Insert(10, 0x1000, 3, 1)
	tab.Insert(10, 0x1040, 3, 2)
	res := tab.Probe(10, 0x1080, 3)
	if res.Kind != MatchSet || len(res.Replay) != 2 {
		t.Fatalf("probe = %+v", res)
	}
	if res.Replay[0].Data != 1 || res.Replay[1].Data != 2 {
		t.Fatalf("replay out of order: %+v", res.Replay)
	}
}

func TestRoundRobinReplacement(t *testing.T) {
	tab := New(1, 2) // 3 physical entries
	tab.SetStabilizeCycles(2)
	tab.Insert(10, 0xA00, 1, 1)
	tab.Insert(11, 0xB00, 2, 2)
	tab.Insert(12, 0xC00, 4, 3)
	// All three live (windows 10..12, 11..13, 12..14).
	if res := tab.Probe(12, 0xA00, 1); res.Kind != MatchFull {
		t.Fatalf("oldest entry already evicted: %v", res.Kind)
	}
	// The fourth insert recycles the oldest slot.
	tab.Insert(13, 0xD00, 5, 4)
	if res := tab.Probe(13, 0xA00, 1); res.Kind != MatchNone {
		t.Fatalf("recycled entry still matching: %v", res.Kind)
	}
}

func TestIdleCyclesInvalidate(t *testing.T) {
	tab := paperTable()
	tab.Insert(10, 0x1000, 3, 42)
	// No stores for many cycles: entries age out via the per-cycle
	// invalidation clock even without new inserts.
	if res := tab.Probe(50, 0x1000, 3); res.Kind != MatchNone {
		t.Fatalf("stale entry matched after idle: %v", res.Kind)
	}
}

func TestNewestFullMatchWins(t *testing.T) {
	tab := New(2, 1) // two stores per cycle
	tab.SetStabilizeCycles(1)
	tab.Insert(10, 0x1000, 3, 1)
	tab.Insert(10, 0x1000, 3, 2) // same word, same cycle, newer value
	res := tab.Probe(10, 0x1000, 3)
	if res.Kind != MatchFull || res.Data != 2 {
		t.Fatalf("probe = %+v, want the newest store's data", res)
	}
}

func TestDisabledAtN0(t *testing.T) {
	tab := paperTable()
	tab.Insert(10, 0x1000, 3, 42)
	tab.SetStabilizeCycles(0)
	if tab.Active() != 0 {
		t.Fatalf("Active = %d after disable", tab.Active())
	}
	if res := tab.Probe(10, 0x1000, 3); res.Kind != MatchNone {
		t.Fatal("disabled table matched")
	}
	tab.Insert(11, 0x2000, 1, 9) // must be a no-op
	if tab.Stats().Inserts != 1 {
		t.Fatal("insert accepted while disabled")
	}
}

func TestReconfigureUpAndDown(t *testing.T) {
	tab := New(1, 3) // supports N up to 3
	for _, n := range []int{1, 3, 2, 0, 1} {
		tab.SetStabilizeCycles(n)
		wantActive := 0
		if n > 0 {
			wantActive = n + 1
		}
		if tab.Active() != wantActive {
			t.Fatalf("N=%d: Active = %d, want %d", n, tab.Active(), wantActive)
		}
	}
}

func TestSetStabilizeCyclesPanicsBeyondCapacity(t *testing.T) {
	tab := New(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tab.SetStabilizeCycles(5)
}

func TestNewValidation(t *testing.T) {
	for _, c := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() { recover() }()
			New(c[0], c[1])
			t.Errorf("New(%d,%d) accepted", c[0], c[1])
		}()
	}
}

func TestBitsAccounting(t *testing.T) {
	tab := paperTable()
	if tab.Bits() != 2*(1+48+12+64) {
		t.Fatalf("Bits = %d", tab.Bits())
	}
}

// TestWindowProperty: for any insert cycle and probe offset, a (fresh)
// entry matches exactly within its danger window.
func TestWindowProperty(t *testing.T) {
	for n := 1; n <= 3; n++ {
		for off := int64(0); off <= int64(n)+2; off++ {
			tab := New(1, 3)
			tab.SetStabilizeCycles(n)
			tab.Insert(100, 0x1000, 3, 7)
			res := tab.Probe(100+off, 0x1000, 3)
			want := off <= int64(n)
			if got := res.Kind == MatchFull; got != want {
				t.Errorf("N=%d offset=%d: match=%v, want %v", n, off, got, want)
			}
		}
	}
}
