package cache

import (
	"testing"

	"lowvcc/internal/rng"
)

// fastSlowPair builds two identically configured hierarchies, one with every
// fast path disabled (the pre-summary reference), both in the given mode.
func fastSlowPair(t *testing.T, mode TimingMode) (fast, slow *Hierarchy) {
	t.Helper()
	fast = MustNewHierarchy(DefaultHierarchyConfig(), false)
	slow = MustNewHierarchy(DefaultHierarchyConfig(), true)
	fast.SetMode(mode)
	slow.SetMode(mode)
	return fast, slow
}

// compareHierarchies asserts every observable counter of the two
// hierarchies matches.
func compareHierarchies(t *testing.T, tag string, fast, slow *Hierarchy) {
	t.Helper()
	if fast.Stats() != slow.Stats() {
		t.Fatalf("%s: hierarchy stats diverge:\nfast: %+v\nslow: %+v", tag, fast.Stats(), slow.Stats())
	}
	for _, pair := range []struct {
		name string
		f, s *Cache
	}{
		{"IL0", fast.IL0, slow.IL0}, {"DL0", fast.DL0, slow.DL0},
		{"UL1", fast.UL1, slow.UL1}, {"ITLB", fast.ITLB, slow.ITLB},
		{"DTLB", fast.DTLB, slow.DTLB},
	} {
		if pair.f.Stats() != pair.s.Stats() {
			t.Fatalf("%s: %s stats diverge:\nfast: %+v\nslow: %+v", tag, pair.name, pair.f.Stats(), pair.s.Stats())
		}
		if pair.f.Data().Stats() != pair.s.Data().Stats() {
			t.Fatalf("%s: %s sram stats diverge:\nfast: %+v\nslow: %+v",
				tag, pair.name, pair.f.Data().Stats(), pair.s.Data().Stats())
		}
	}
	if fast.STab.Stats() != slow.STab.Stats() {
		t.Fatalf("%s: STable stats diverge:\nfast: %+v\nslow: %+v", tag, fast.STab.Stats(), slow.STab.Stats())
	}
	if fast.ViolationReads() != slow.ViolationReads() {
		t.Fatalf("%s: violation reads %d vs %d", tag, fast.ViolationReads(), slow.ViolationReads())
	}
}

// TestHierarchyFastSlowEquivalence drives identical access sequences
// through a fast-path and a fast-path-disabled hierarchy and requires every
// returned timing and every counter to be bit-identical. The sequence is
// tuned to exercise exactly the states the cached set state summarizes:
// store bursts followed by same-set loads (STable replays, full and
// set-only matches), unsafe IRAW windows (scrambled bitcells, so the
// violation and repair-accounting paths engage), tight same-set conflict
// traffic (victim selection from the packed LRU order), and page churn
// (TLB walk fills).
func TestHierarchyFastSlowEquivalence(t *testing.T) {
	modes := []TimingMode{
		{Interrupted: false, N: 0, Avoid: false, MemCycles: 40}, // baseline
		{Interrupted: true, N: 1, Avoid: true, MemCycles: 60},   // safe IRAW
		{Interrupted: true, N: 3, Avoid: true, MemCycles: 90},   // deep windows
		{Interrupted: true, N: 2, Avoid: false, MemCycles: 60},  // unsafe: scrambles
	}
	for mi, mode := range modes {
		fast, slow := fastSlowPair(t, mode)
		src := rng.New(0xFA57 + uint64(mi))

		// setStride maps two addresses to the same DL0 set.
		setStride := uint64(fast.DL0.Config().LineBytes * fast.DL0.Config().Sets)
		cycle := int64(100)
		for i := 0; i < 6000; i++ {
			r := src.Uint64()
			// Cluster data within few sets and pages so same-set replays,
			// conflict evictions and STable matches are frequent; the
			// occasional far page forces walks and TLB victim churn.
			base := uint64(0x10000000) + r%8*64 + r%3*setStride
			if r%41 == 0 {
				base = uint64(0x40000000) + r%512*4096
			}
			addr := base &^ 7
			pc := uint64(0x00400000) + r%5*4096 + (src.Uint64()%2048)&^3

			switch r % 8 {
			case 0, 1, 2:
				a, b := fast.Load(cycle, addr), slow.Load(cycle, addr)
				if a != b {
					t.Fatalf("mode %d op %d: Load(%d, %#x) = %+v vs %+v", mi, i, cycle, addr, a, b)
				}
			case 3, 4, 5:
				a, b := fast.CommitStore(cycle, addr, r), slow.CommitStore(cycle, addr, r)
				if a != b {
					t.Fatalf("mode %d op %d: CommitStore(%d, %#x) = %+v vs %+v", mi, i, cycle, addr, a, b)
				}
			default:
				a, b := fast.FetchInst(cycle, pc), slow.FetchInst(cycle, pc)
				if a != b {
					t.Fatalf("mode %d op %d: FetchInst(%d, %#x) = %+v vs %+v", mi, i, cycle, pc, a, b)
				}
			}
			cycle += int64(r % 3) // adjacent cycles keep stabilization windows hot
			if i%64 == 0 {
				compareHierarchies(t, "mid-run", fast, slow)
			}
		}
		compareHierarchies(t, "final", fast, slow)
		if mode.Avoid && fast.Stats().IntegrityErrors != 0 {
			t.Fatalf("mode %d: integrity errors under avoidance: %+v", mi, fast.Stats())
		}
	}
}

// TestHierarchyFastSlowEquivalenceFaultyBits repeats the fast-vs-slow fuzz
// with Faulty-Bits fault maps installed: disabled ways exercise the
// disabledMask summaries in Lookup and Victim (including fully disabled
// sets, which bypass caching) while STable replays run on top.
func TestHierarchyFastSlowEquivalenceFaultyBits(t *testing.T) {
	fast, slow := fastSlowPair(t, TimingMode{Interrupted: true, N: 2, Avoid: true, MemCycles: 60})
	// Identical fault maps on both sides: fork per block from twin sources.
	fsrc, ssrc := rng.New(0xFAB), rng.New(0xFAB)
	for _, pair := range [][2]*Cache{
		{fast.IL0, slow.IL0}, {fast.DL0, slow.DL0}, {fast.UL1, slow.UL1},
		{fast.ITLB, slow.ITLB}, {fast.DTLB, slow.DTLB},
	} {
		// A high failure probability makes fully disabled sets likely.
		df := pair[0].DisableFaultyLines(fsrc.Fork(), 0.4)
		ds := pair[1].DisableFaultyLines(ssrc.Fork(), 0.4)
		if df != ds {
			t.Fatalf("fault maps diverge: %d vs %d disabled", df, ds)
		}
	}

	src := rng.New(0xB17F)
	setStride := uint64(fast.DL0.Config().LineBytes * fast.DL0.Config().Sets)
	cycle := int64(50)
	for i := 0; i < 6000; i++ {
		r := src.Uint64()
		addr := (uint64(0x20000000) + r%16*64 + r%4*setStride) &^ 7
		pc := uint64(0x00800000) + r%3*4096 + (src.Uint64()%1024)&^3
		switch r % 7 {
		case 0, 1, 2:
			a, b := fast.Load(cycle, addr), slow.Load(cycle, addr)
			if a != b {
				t.Fatalf("op %d: Load = %+v vs %+v", i, a, b)
			}
		case 3, 4:
			a, b := fast.CommitStore(cycle, addr, r), slow.CommitStore(cycle, addr, r)
			if a != b {
				t.Fatalf("op %d: CommitStore = %+v vs %+v", i, a, b)
			}
		default:
			a, b := fast.FetchInst(cycle, pc), slow.FetchInst(cycle, pc)
			if a != b {
				t.Fatalf("op %d: FetchInst = %+v vs %+v", i, a, b)
			}
		}
		cycle += int64(r % 4)
		if i%64 == 0 {
			compareHierarchies(t, "faulty mid-run", fast, slow)
		}
	}
	compareHierarchies(t, "faulty final", fast, slow)
}

// TestVictimMatchesTickScan pins the packed-LRU victim choice to the tick
// scan on one cache with randomized fills, hits and disables.
func TestVictimMatchesTickScan(t *testing.T) {
	fast := MustNew(Config{Name: "V", Sets: 4, Ways: 6, LineBytes: 64}, false)
	slow := MustNew(Config{Name: "V", Sets: 4, Ways: 6, LineBytes: 64}, true)
	fsrc, ssrc := rng.New(7), rng.New(7)
	fast.DisableFaultyLines(fsrc, 0.15)
	slow.DisableFaultyLines(ssrc, 0.15)

	src := rng.New(0x1CC)
	cycle := int64(10)
	for i := 0; i < 20000; i++ {
		addr := uint64(src.Intn(64)) * 64 // 64 lines over 4 sets
		switch src.Intn(3) {
		case 0:
			fw, fok := fast.Victim(addr)
			sw, sok := slow.Victim(addr)
			if fw != sw || fok != sok {
				t.Fatalf("op %d: Victim(%#x) = (%d,%v) vs (%d,%v)", i, addr, fw, fok, sw, sok)
			}
		case 1:
			fa, fd, fe, fok := fast.Fill(cycle, addr, 0xABC)
			sa, sd, se, sok := slow.Fill(cycle, addr, 0xABC)
			if fa != sa || fd != sd || fe != se || fok != sok {
				t.Fatalf("op %d: Fill(%#x) diverges", i, addr)
			}
		default:
			fw, fh := fast.Lookup(cycle, addr)
			sw, sh := slow.Lookup(cycle, addr)
			if fw != sw || fh != sh {
				t.Fatalf("op %d: Lookup(%#x) = (%d,%v) vs (%d,%v)", i, addr, fw, fh, sw, sh)
			}
		}
		cycle += int64(src.Intn(3))
	}
	if fast.Stats() != slow.Stats() {
		t.Fatalf("stats diverge:\nfast: %+v\nslow: %+v", fast.Stats(), slow.Stats())
	}
}
