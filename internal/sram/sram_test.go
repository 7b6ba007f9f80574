package sram

import (
	"testing"
	"testing/quick"
)

func TestBitcellFullWrite(t *testing.T) {
	b := NewBitcell(false)
	if !b.Drive(true, 1.0, 1.0) {
		t.Fatal("full-duration write did not commit")
	}
	if !b.Readable() {
		t.Fatal("cell not readable after full write")
	}
	if v, ok := b.Read(); !ok || !v {
		t.Fatalf("Read = (%v, %v), want (true, true)", v, ok)
	}
}

func TestBitcellInterruptedWriteCommits(t *testing.T) {
	// Drive for 60% of the full write time: past the 50% flip point, so the
	// cell commits but is not yet readable; stabilization finishes the flip.
	b := NewBitcell(false)
	if !b.Drive(true, 0.6, 1.0) {
		t.Fatal("60% drive should pass the flip point and commit")
	}
	if b.Readable() {
		t.Fatal("interrupted cell must not be immediately readable")
	}
	b.Stabilize(2.0, 1.0)
	if !b.Readable() {
		t.Fatalf("cell failed to stabilize; swing=%v", b.Swing())
	}
	if v, ok := b.Read(); !ok || !v {
		t.Fatalf("stabilized Read = (%v,%v), want (true,true)", v, ok)
	}
}

func TestBitcellTooEarlyInterruptionLosesWrite(t *testing.T) {
	b := NewBitcell(false)
	if b.Drive(true, 0.1, 1.0) {
		t.Fatal("10% drive should not pass the flip point")
	}
	if v := b.Value(); v {
		t.Fatal("cell should have relaxed back to the old value")
	}
}

func TestBitcellReadDisturbDestroysMidFlip(t *testing.T) {
	b := NewBitcell(false)
	b.Drive(true, 0.6, 1.0) // committed, mid-flip
	v, ok := b.Read()
	if ok {
		t.Fatal("read of a mid-flip cell reported reliable")
	}
	_ = v
	// After the disturb the cell has settled (possibly to garbage) and
	// reads of it are "reliable" again, but the datum is untrustworthy.
	if !b.Readable() {
		t.Fatal("disturbed cell should settle")
	}
}

func TestBitcellRewriteSameValueNoop(t *testing.T) {
	b := NewBitcell(true)
	if !b.Drive(true, 0.01, 1.0) {
		t.Fatal("rewriting the stored value must trivially succeed")
	}
	if !b.Readable() {
		t.Fatal("cell should stay settled")
	}
}

// TestBitcellGammaSafety ties the circuit model's interrupted-write fraction
// to cell physics: driving for the gamma fraction used by the clock plans
// must always commit the cell (property (iii) of Section 3.2). gamma in the
// calibration ranges over ~[0.50, 0.70]; the flip-point requires ~0.43.
func TestBitcellGammaSafety(t *testing.T) {
	for _, gamma := range []float64{0.497, 0.55, 0.607, 0.65, 0.70} {
		b := NewBitcell(false)
		if !b.Drive(true, gamma, 1.0) {
			t.Errorf("gamma=%v failed to commit; clock plan would be unsafe", gamma)
		}
	}
}

func TestBitcellStabilizeProperty(t *testing.T) {
	// Property: any committed interrupted write reaches readability within
	// one full-write time of unaided stabilization with margin 2x.
	f := func(frac float64) bool {
		if frac < 0 {
			frac = -frac
		}
		frac = 0.5 + 0.45*(frac-float64(int(frac))) // in [0.5, 0.95)
		b := NewBitcell(false)
		if !b.Drive(true, frac, 1.0) {
			return true // did not commit; nothing to check
		}
		b.Stabilize(2.0, 1.0)
		return b.Readable() && b.Value()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func newTestArray(t *testing.T, entriesPerSet int) *Array {
	t.Helper()
	a, err := New(Config{
		Name: "test", Entries: 16, EntriesPerSet: entriesPerSet,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestArrayWriteThenStableRead(t *testing.T) {
	a := newTestArray(t, 1)
	const data = 0x0102030405060708
	if !a.Write(10, 3, data, false, 0) {
		t.Fatal("write rejected")
	}
	got, ok := a.Read(11, 3)
	if !ok || got != data {
		t.Fatalf("Read = (%v, %v), want clean %v", got, ok, data)
	}
	if a.Stats().ViolationReads != 0 {
		t.Fatal("clean read counted as violation")
	}
}

func TestArrayInterruptedWriteWindow(t *testing.T) {
	a := newTestArray(t, 1)
	const data = 0x09080706
	const n = 2
	a.Write(100, 5, data, true, n)
	// Stabilizing during cycles 101..102; readable from 103.
	if a.Stable(101, 5) || a.Stable(102, 5) {
		t.Fatal("entry reported stable inside the stabilization window")
	}
	if !a.Stable(103, 5) {
		t.Fatal("entry not stable after the window")
	}
	got, ok := a.Read(103, 5)
	if !ok || got != data {
		t.Fatalf("post-window read = (%v,%v), want clean data", got, ok)
	}
}

func TestArrayViolationScramblesData(t *testing.T) {
	a := newTestArray(t, 1)
	const data = 0xDEADBEEF
	a.Write(50, 2, data, true, 1)
	got, ok := a.Read(51, 2) // inside the window: violation
	if ok {
		t.Fatal("violating read reported clean")
	}
	if got == data {
		t.Fatal("violating read returned intact data; must be scrambled")
	}
	if a.Stats().ViolationReads != 1 {
		t.Fatalf("ViolationReads = %d, want 1", a.Stats().ViolationReads)
	}
	if !a.Corrupted(2) {
		t.Fatal("entry not marked corrupted")
	}
	// A rewrite clears the corruption.
	a.Write(60, 2, data, false, 0)
	if a.Corrupted(2) {
		t.Fatal("rewrite did not clear corruption")
	}
	if got, ok := a.Read(61, 2); !ok || got != data {
		t.Fatalf("read after rewrite = (%v,%v)", got, ok)
	}
}

func TestArrayCollateralSetDestruction(t *testing.T) {
	// 4 entries per set: entries 0..3 share a set. A read of entry 0 while
	// entry 2 stabilizes destroys entry 2 even though 0 was the target.
	a := newTestArray(t, 4)
	const stable, fresh = 0x01010101, 0x02020202
	a.Write(10, 0, stable, false, 0)
	a.Write(20, 2, fresh, true, 1)
	got, ok := a.Read(21, 0)
	if !ok || got != stable {
		t.Fatalf("read of stable way = (%v,%v), want clean", got, ok)
	}
	if a.Stats().CollateralDestructions != 1 {
		t.Fatalf("CollateralDestructions = %d, want 1", a.Stats().CollateralDestructions)
	}
	if !a.Corrupted(2) {
		t.Fatal("stabilizing way not destroyed by set access")
	}
	// Entries in other sets are untouched.
	a.Write(30, 7, fresh, true, 1)
	a.Read(31, 0)
	if a.Corrupted(7) {
		t.Fatal("read destroyed an entry in a different set")
	}
}

func TestArraySetStable(t *testing.T) {
	a := newTestArray(t, 4)
	a.Write(10, 1, 0x01020304, true, 2)
	if a.SetStable(11, 0) {
		t.Fatal("SetStable true while a way stabilizes")
	}
	if !a.SetStable(13, 0) {
		t.Fatal("SetStable false after the window")
	}
	if !a.SetStable(11, 8) {
		t.Fatal("unrelated set affected")
	}
}

func TestArrayWriteIntoStabilizingEntryIsSafe(t *testing.T) {
	// Section 4.4: overwriting a stabilizing entry is fine (no read).
	a := newTestArray(t, 1)
	a.Write(10, 4, 0x01010101, true, 1)
	a.Write(11, 4, 0x02020202, true, 1) // inside window: allowed
	if got, ok := a.Read(13, 4); !ok || got != 0x02020202 {
		t.Fatalf("read = (%v,%v), want the second write's data", got, ok)
	}
	if a.Stats().ViolationReads != 0 {
		t.Fatal("write-into-stabilizing counted as violation")
	}
}

func TestArrayPortLimits(t *testing.T) {
	a, err := New(Config{Name: "p", Entries: 8, EntriesPerSet: 1, ReadPorts: 1, WritePorts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Write(5, 0, 0x0102, false, 0) {
		t.Fatal("first write rejected")
	}
	if a.Write(5, 1, 0x0304, false, 0) {
		t.Fatal("second write same cycle accepted with 1 port")
	}
	if !a.Write(6, 1, 0x0304, false, 0) {
		t.Fatal("write next cycle rejected")
	}
	if _, ok := a.Read(7, 0); !ok {
		t.Fatal("first read rejected")
	}
	if _, ok := a.Read(7, 1); ok {
		t.Fatal("second read same cycle accepted with 1 port")
	}
	if a.Stats().PortConflicts != 2 {
		t.Fatalf("PortConflicts = %d, want 2", a.Stats().PortConflicts)
	}
}

func TestArrayUninterruptedNextCycleReadable(t *testing.T) {
	a := newTestArray(t, 1)
	a.Write(10, 0, 0x05050505, false, 0)
	if !a.Stable(11, 0) {
		t.Fatal("uninterrupted write not readable next cycle")
	}
	if a.ReadyAt(0) != 11 {
		t.Fatalf("ReadyAt = %d, want 11", a.ReadyAt(0))
	}
}

func TestArrayConfigValidation(t *testing.T) {
	bad := []Config{
		{Name: "a", Entries: 0, EntriesPerSet: 1},
		{Name: "b", Entries: -4, EntriesPerSet: 1},
		{Name: "c", Entries: 4, EntriesPerSet: 0},
		{Name: "d", Entries: 6, EntriesPerSet: 4},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestArrayPanicsOnBadUsage(t *testing.T) {
	a := newTestArray(t, 1)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("out-of-range entry", func() { a.Read(0, 99) })
	mustPanic("out-of-range write", func() { a.Write(0, 16, 1, false, 0) })
	mustPanic("interrupted without N", func() { a.Write(0, 0, 0x01020304, true, 0) })
}

// TestArrayDataIntegrityProperty: for any sequence of interrupted writes
// followed by reads after their windows, data is always intact — the core
// correctness claim behind IRAW avoidance.
func TestArrayDataIntegrityProperty(t *testing.T) {
	f := func(seed uint8, entries [12]uint8, values [12]uint32) bool {
		a := MustNew(Config{Name: "q", Entries: 8, EntriesPerSet: 2})
		cycle := int64(0)
		want := map[int]uint64{}
		for i, e := range entries {
			entry := int(e) % 8
			data := uint64(values[i])
			cycle += 3 // windows never overlap reads below
			a.Write(cycle, entry, data, true, 2)
			want[entry] = data
		}
		cycle += 3 // all windows closed
		for entry, data := range want {
			got, ok := a.Read(cycle, entry)
			if !ok || got != data {
				return false
			}
			cycle++
		}
		return a.Stats().ViolationReads == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTotalBits(t *testing.T) {
	a := newTestArray(t, 1)
	if got := a.TotalBits(); got != 16*64 {
		t.Fatalf("TotalBits = %d, want %d", got, 16*64)
	}
}

func TestPeekHasNoSideEffects(t *testing.T) {
	a := newTestArray(t, 4)
	a.Write(10, 1, 0x01020304, true, 5)
	before := a.Stats()
	_ = a.Peek(1)
	_ = a.Peek(0)
	if a.Stats() != before {
		t.Fatal("Peek moved counters")
	}
	if a.Corrupted(1) {
		t.Fatal("Peek destroyed a stabilizing entry")
	}
}
