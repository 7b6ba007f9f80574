package cache

import (
	"testing"
	"testing/quick"

	"lowvcc/internal/rng"
)

func testCache(t *testing.T) *Cache {
	t.Helper()
	return MustNew(Config{Name: "t", Sets: 8, Ways: 2, LineBytes: 64})
}

func TestLookupMissThenFillHit(t *testing.T) {
	c := testCache(t)
	if _, hit := c.Lookup(10, 0x1000); hit {
		t.Fatal("empty cache hit")
	}
	c.Fill(20, 0x1000, 7)
	if _, hit := c.Lookup(21, 0x1000); !hit {
		t.Fatal("filled line missed")
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Misses != 1 || s.Hits != 1 || s.Fills != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFillNotVisibleBeforeCompletion(t *testing.T) {
	// A fill stamped at a future cycle (miss completion) must not hit
	// earlier: the data is still in flight.
	c := testCache(t)
	c.Fill(100, 0x2000, 1)
	if _, hit := c.Lookup(50, 0x2000); hit {
		t.Fatal("in-flight fill visible before completion")
	}
	if _, hit := c.Lookup(100, 0x2000); hit {
		t.Fatal("fill visible during its write cycle")
	}
	if _, hit := c.Lookup(101, 0x2000); !hit {
		t.Fatal("fill invisible after completion")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := testCache(t)                                         // 2 ways
	a, b, d := uint64(0x0000), uint64(0x4000), uint64(0x8000) // same set 0
	c.Fill(10, a, 1)
	c.Fill(20, b, 2)
	c.Lookup(30, a) // touch a: b becomes LRU
	victim, _, evicted, ok := c.Fill(40, d, 3)
	if !ok || !evicted {
		t.Fatalf("fill did not evict (ok=%v evicted=%v)", ok, evicted)
	}
	if victim != b {
		t.Fatalf("evicted %#x, want LRU %#x", victim, b)
	}
	if !c.Peek(a) || c.Peek(b) || !c.Peek(d) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := testCache(t)
	c.Fill(10, 0x0000, 1)
	way, hit := c.Lookup(11, 0x0000)
	if !hit {
		t.Fatal("miss")
	}
	c.MarkDirty(c.SetOf(0x0000), way)
	c.Fill(20, 0x4000, 2)
	_, dirty, evicted, _ := c.Fill(30, 0x8000, 3)
	if !evicted || !dirty {
		t.Fatalf("dirty eviction not reported (evicted=%v dirty=%v)", evicted, dirty)
	}
	if c.Stats().DirtyEvicts != 1 {
		t.Fatalf("DirtyEvicts = %d", c.Stats().DirtyEvicts)
	}
}

func TestPortHoldWindows(t *testing.T) {
	c := testCache(t)
	c.SetIRAW(true, 2, true)
	c.Fill(100, 0x1000, 1) // holds [100, 102]
	if !c.Busy(100) || !c.Busy(102) {
		t.Fatal("ports not held during stabilization window")
	}
	if c.Busy(99) || c.Busy(103) {
		t.Fatal("ports held outside the window")
	}
	if got := c.WaitPorts(101); got != 103 {
		t.Fatalf("WaitPorts(101) = %d, want 103", got)
	}
	if c.Stats().FillStallCycles != 2 {
		t.Fatalf("FillStallCycles = %d, want 2", c.Stats().FillStallCycles)
	}
	// A future window must not block the present.
	c2 := testCache(t)
	c2.SetIRAW(true, 1, true)
	c2.Fill(1000, 0x1000, 1) // holds [1000, 1001]
	if c2.Busy(500) {
		t.Fatal("future fill window blocks the present")
	}
	if got := c2.WaitPorts(500); got != 500 {
		t.Fatalf("WaitPorts(500) = %d", got)
	}
}

func TestBaselineFillHoldsOneCycle(t *testing.T) {
	c := testCache(t) // avoidance off
	c.Fill(100, 0x1000, 1)
	if !c.Busy(100) {
		t.Fatal("fill write cycle not held at baseline")
	}
	if c.Busy(101) {
		t.Fatal("baseline fill held past its write cycle")
	}
}

func TestOverlappingHoldWindows(t *testing.T) {
	c := testCache(t)
	c.SetIRAW(true, 1, true)
	c.Fill(100, 0x0000, 1) // [100, 101]
	c.Fill(101, 0x4000, 2) // [101, 102]
	if got := c.WaitPorts(100); got != 103 {
		t.Fatalf("WaitPorts(100) = %d, want 103 (chained windows)", got)
	}
}

func TestInFlightTracking(t *testing.T) {
	c := testCache(t)
	c.MarkInFlight(0x1000, 200)
	if r, ok := c.InFlightReady(0x1000, 150); !ok || r != 200 {
		t.Fatalf("InFlightReady = (%d, %v)", r, ok)
	}
	// Expired records are dropped lazily.
	if _, ok := c.InFlightReady(0x1000, 201); ok {
		t.Fatal("expired in-flight record returned")
	}
	if _, ok := c.InFlightReady(0x1000, 150); ok {
		t.Fatal("record not dropped after expiry")
	}
}

func TestDataViolationSemantics(t *testing.T) {
	c := testCache(t)
	c.SetIRAW(true, 2, false) // interrupted writes, avoidance OFF (unsafe)
	c.Fill(100, 0x1000, 0xABCD)
	set := c.SetOf(0x1000)
	way, hit := c.Lookup(101, 0x1000)
	if !hit {
		t.Fatal("miss")
	}
	// Read during the stabilization window: violation.
	if _, ok := c.ReadData(101, set, way); ok {
		t.Fatal("in-window read reported clean")
	}
	if c.Data().Stats().ViolationReads != 1 {
		t.Fatalf("violations = %d", c.Data().Stats().ViolationReads)
	}
}

func TestDisableFaultyLines(t *testing.T) {
	c := MustNew(Config{Name: "fb", Sets: 64, Ways: 8, LineBytes: 64})
	src := rng.New(1)
	n := c.DisableFaultyLines(src, 0.25)
	if n == 0 {
		t.Fatal("no lines disabled at p=0.25")
	}
	if got := c.Stats().DisabledLines; got != n {
		t.Fatalf("DisabledLines = %d, want %d", got, n)
	}
	// Disabled ways shrink capacity: after filling exactly capacity-many
	// distinct lines, fewer than all of them can be resident.
	for addr := uint64(0); addr < 64*8*64; addr += 64 {
		c.Fill(10, addr, 1)
	}
	resident := 0
	for addr := uint64(0); addr < 64*8*64; addr += 64 {
		if c.Peek(addr) {
			resident++
		}
	}
	if resident == 0 {
		t.Fatal("everything disabled at p=0.25?")
	}
	if resident >= 64*8 {
		t.Fatal("no capacity lost to disabled lines")
	}
	if want := 64*8 - n; resident > want {
		t.Fatalf("resident = %d, want <= capacity %d", resident, want)
	}
}

func TestVictimAllWaysDisabled(t *testing.T) {
	c := MustNew(Config{Name: "fb2", Sets: 2, Ways: 2, LineBytes: 64})
	src := rng.New(1)
	c.DisableFaultyLines(src, 1.0) // everything disabled
	if _, ok := c.Victim(0x1000); ok {
		t.Fatal("victim found in a fully disabled set")
	}
	if _, _, _, ok := c.Fill(10, 0x1000, 1); ok {
		t.Fatal("fill succeeded in a fully disabled set")
	}
}

func TestInvalidate(t *testing.T) {
	c := testCache(t)
	c.Fill(10, 0x1000, 1)
	if !c.Invalidate(0x1000) {
		t.Fatal("invalidate missed present line")
	}
	if c.Peek(0x1000) {
		t.Fatal("line still present")
	}
	if c.Invalidate(0x1000) {
		t.Fatal("invalidate hit absent line")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Name: "a", Sets: 0, Ways: 1, LineBytes: 64},
		{Name: "b", Sets: 3, Ways: 1, LineBytes: 64},
		{Name: "c", Sets: 4, Ways: 0, LineBytes: 64},
		{Name: "d", Sets: 4, Ways: 1, LineBytes: 48},
		{Name: "e", Sets: 4, Ways: 1, LineBytes: 64, HitLatency: -1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestSetIndexProperty(t *testing.T) {
	c := testCache(t)
	f := func(addr uint64) bool {
		set := c.SetOf(addr)
		if set < 0 || set >= 8 {
			return false
		}
		// Same line, same set; line address is aligned and preserved.
		return c.SetOf(c.LineAddr(addr)) == set && c.LineAddr(addr)%64 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLineAddrAt(t *testing.T) {
	c := testCache(t)
	const addr = 0x1040
	c.Fill(10, addr, 1)
	set := c.SetOf(addr)
	way, hit := c.Lookup(11, addr)
	if !hit {
		t.Fatal("miss")
	}
	got, valid := c.LineAddrAt(set, way)
	if !valid || got != c.LineAddr(addr) {
		t.Fatalf("LineAddrAt = (%#x, %v), want (%#x, true)", got, valid, c.LineAddr(addr))
	}
	if _, valid := c.LineAddrAt(set, 1-way); valid {
		t.Fatal("empty way reported valid")
	}
}

func TestBufferReserveCommit(t *testing.T) {
	b := NewBuffer("fb", 2)
	s1 := b.Reserve(10)
	if s1 != 10 {
		t.Fatalf("Reserve = %d", s1)
	}
	b.Commit(s1, 20)
	s2 := b.Reserve(10)
	b.Commit(s2, 30)
	// Both entries busy: the third waits for the earliest free (20).
	s3 := b.Reserve(12)
	if s3 != 20 {
		t.Fatalf("third Reserve = %d, want 20", s3)
	}
	b.Commit(s3, 25)
	if b.FullStallCycles != 8 {
		t.Fatalf("FullStallCycles = %d, want 8", b.FullStallCycles)
	}
}

func TestBufferIRAWHold(t *testing.T) {
	b := NewBuffer("fb", 4)
	b.SetIRAW(true, 2, true)
	s := b.Acquire(10, 5) // allocation at 10, window [11, 12]
	if s != 10 {
		t.Fatalf("Acquire = %d", s)
	}
	if got := b.Reserve(11); got != 13 {
		t.Fatalf("Reserve during hold = %d, want 13", got)
	}
	b.Commit(13, 14)
}

func TestBufferDoubleReservePanics(t *testing.T) {
	b := NewBuffer("fb", 1)
	b.Reserve(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b.Reserve(2)
}

func TestBufferCommitWithoutReservePanics(t *testing.T) {
	b := NewBuffer("fb", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b.Commit(1, 2)
}

func TestTotalBits(t *testing.T) {
	c := testCache(t)
	if c.TotalBits() <= 8*2*64*8 {
		t.Fatalf("TotalBits = %d does not include tags/state", c.TotalBits())
	}
}

// TestNextFreeMatchesBusy: the event-driven pipeline's "next event at" hook
// must name exactly the first non-busy cycle after its argument, for
// overlapping, adjacent and far-apart hold windows.
func TestNextFreeMatchesBusy(t *testing.T) {
	c := testCache(t)
	c.HoldPorts(10, 12)
	c.HoldPorts(12, 15) // overlapping
	c.HoldPorts(16, 16) // adjacent
	c.HoldPorts(40, 41) // detached
	for cycle := int64(0); cycle < 60; cycle++ {
		want := cycle + 1
		for c.Busy(want) {
			want++
		}
		if got := c.NextFree(cycle); got != want {
			t.Fatalf("NextFree(%d) = %d, want %d", cycle, got, want)
		}
	}
	// NextFree never charges stall statistics.
	before := c.Stats().FillStallCycles
	c.NextFree(9)
	if c.Stats().FillStallCycles != before {
		t.Fatal("NextFree charged FillStallCycles")
	}
}

// TestHoldCalendarFarApartWindows: windows registered far apart (beyond one
// calendar lap) must not shadow each other as long as both are within the
// consultation horizon of their own registration.
func TestHoldCalendarFarApartWindows(t *testing.T) {
	c := testCache(t)
	c.HoldPorts(100, 101)
	far := int64(100 + calSize)
	c.HoldPorts(far, far+1) // aliases the same slots one lap later
	if c.Busy(99) || !c.Busy(far) || !c.Busy(far+1) || c.Busy(far+2) {
		t.Fatal("far window misregistered")
	}
	// The aliased old cycles read as free — which the horizon argument
	// guarantees is unobservable in real pipelines, and which must at least
	// never read as busy for the wrong cycle.
	if c.Busy(far-calSize+5) || c.Busy(far-calSize) {
		t.Fatal("stale alias reported busy")
	}
}

// TestNextHeldFindsFutureOnsets: a hold registered in the past for a
// future window must bound skips that would otherwise cross its onset.
func TestNextHeldFindsFutureOnsets(t *testing.T) {
	c := testCache(t)
	c.HoldPorts(20, 22) // future window, registered "now"
	if got := c.NextHeld(10, 30); got != 20 {
		t.Fatalf("NextHeld(10,30) = %d, want 20", got)
	}
	if got := c.NextHeld(21, 30); got != 22 {
		t.Fatalf("NextHeld(21,30) = %d, want 22", got)
	}
	// Clear gap: the bound is the caller's horizon.
	if got := c.NextHeld(22, 30); got != 30 {
		t.Fatalf("NextHeld(22,30) = %d, want 30", got)
	}
	// No holds at all short-circuits without scanning.
	d := testCache(t)
	if got := d.NextHeld(0, 1000); got != 1000 {
		t.Fatalf("NextHeld on empty cache = %d, want 1000", got)
	}
}
