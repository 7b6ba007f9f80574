package cache

import (
	"math/rand/v2"
	"testing"
)

// TestLineTableMatchesMap drives random put/get/delete/clear sequences
// through a lineTable and a Go map and requires identical contents after
// every operation. The key pool mixes clustered line addresses with keys
// whose home is the table's last slot, so probe runs (and backward-shift
// deletes) regularly wrap around the end of the table.
func TestLineTableMatchesMap(t *testing.T) {
	var tab lineTable
	ref := map[uint64]int64{}
	r := rand.New(rand.NewPCG(1, 2))

	pool := make([]uint64, 0, 48)
	for i := 0; i < 40; i++ {
		pool = append(pool, uint64(r.IntN(256))<<6)
	}
	probe := lineTable{shift: 64 - 5} // the 32-slot geometry the pool's live set settles at
	for k := uint64(0); len(pool) < 48; k += 64 {
		if probe.home(k) == 31 {
			pool = append(pool, k)
		}
	}

	check := func(op int) {
		t.Helper()
		if tab.n != len(ref) {
			t.Fatalf("op %d: table holds %d keys, map %d", op, tab.n, len(ref))
		}
		for _, k := range pool {
			i := tab.find(k)
			want, ok := ref[k]
			if (i >= 0) != ok || (ok && tab.vals[i] != want) || tab.get(k) != want {
				t.Fatalf("op %d: key %#x: slot %d, map (%d, %v)", op, k, i, want, ok)
			}
		}
	}
	wrapped := 0
	for op := 0; op < 200000; op++ {
		k := pool[r.IntN(len(pool))]
		switch x := r.IntN(100); {
		case x < 45:
			v := r.Int64()
			tab.put(k, v)
			ref[k] = v
		case x < 90:
			if i := tab.find(k); i >= 0 {
				if i < tab.home(k) {
					wrapped++ // this key's probe run wrapped around the end
				}
				tab.deleteAt(i)
			}
			delete(ref, k)
		case x < 99:
			if got := tab.get(k); got != ref[k] {
				t.Fatalf("op %d: get(%#x) = %d, map %d", op, k, got, ref[k])
			}
		default:
			tab.clear()
			clear(ref)
		}
		check(op)
	}
	if wrapped == 0 {
		t.Fatal("no delete of a wrapped probe run was exercised")
	}
}

// TestInFlightRotationMatchesReference drives MarkInFlight/InFlightReady on
// a fast-path cache, whose MSHR records rotate through two generations,
// and on the fast-path-disabled reference, whose single table only prunes
// lazily. The protocol is the hierarchy's: a fill is registered only after
// a probe of its line missed, its completion leads the probe by up to a
// memory round trip, and probe times trail the clock by a bounded skew.
// Every answer must match, and the generations must stay at working-set
// size.
func TestInFlightRotationMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		fast := MustNew(Config{Name: "F", Sets: 64, Ways: 8, LineBytes: 64}, false)
		ref := MustNew(Config{Name: "F", Sets: 64, Ways: 8, LineBytes: 64}, true)
		r := rand.New(rand.NewPCG(seed, 7))
		lines := 64 << (2 * seed) // from a few hot lines to streaming traffic
		now := int64(0)
		for op := 0; op < 100000; op++ {
			now += r.Int64N(4)
			line := uint64(r.IntN(lines)) << 6
			at := max(0, now-r.Int64N(200))
			fr, fok := fast.InFlightReady(line, at)
			rr, rok := ref.InFlightReady(line, at)
			if fr != rr || fok != rok {
				t.Fatalf("seed %d op %d: InFlightReady(%#x, %d) = (%d, %v), reference (%d, %v)",
					seed, op, line, at, fr, fok, rr, rok)
			}
			if !fok && r.IntN(2) == 0 {
				ready := at + 1 + r.Int64N(300)
				fast.MarkInFlight(line, ready)
				ref.MarkInFlight(line, ready)
			}
		}
		if fast.inflightRotate < 10*minInflightHorizon {
			t.Fatalf("seed %d: generations rotated too rarely (next at %d)", seed, fast.inflightRotate)
		}
		// Two generations span at most ~2 horizons of registrations.
		if live := fast.inflight.n + fast.inflightOld.n; live > 2*minInflightHorizon {
			t.Fatalf("seed %d: %d live MSHR records, generations not rotating", seed, live)
		}
	}
}

// stampCal is the reference hold calendar: slot c&calMask holds the exact
// cycle it was last marked for, so it answers exactly for every cycle
// whose slot no later registration reused.
type stampCal struct {
	slots []int64
	max   int64
}

func (h *stampCal) mark(from, to int64) {
	if h.slots == nil {
		h.slots = make([]int64, calSize)
		for i := range h.slots {
			h.slots[i] = -1
		}
	}
	for t := from; t <= to; t++ {
		h.slots[t&calMask] = t
	}
	if to > h.max {
		h.max = to
	}
}

func (h *stampCal) busy(cycle int64) bool {
	return cycle <= h.max && h.slots != nil && h.slots[cycle&calMask] == cycle
}

func (h *stampCal) nextFree(cycle int64) int64 {
	for cycle++; h.busy(cycle); cycle++ {
	}
	return cycle
}

func (h *stampCal) nextHeld(after, before int64) int64 {
	if h.max <= after {
		return before
	}
	for t := after + 1; t < before; t++ {
		if h.busy(t) {
			return t
		}
	}
	return before
}

// TestHoldBitmapMatchesStampCalendar: random HoldPorts/Busy/NextFree/
// NextHeld sequences give identical answers on the bitmap calendar and the
// stamp calendar, as long as queries trail the newest hold by less than
// holdHorizon (the pipeline's guarantee). Windows open up to several
// hundred cycles ahead, and the clock occasionally jumps more than a full
// lap, so both partial and whole-ring lap clearing run.
func TestHoldBitmapMatchesStampCalendar(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		c := testCache(t)
		var ref stampCal
		r := rand.New(rand.NewPCG(seed, 11))
		now := int64(r.IntN(100))
		for op := 0; op < 100000; op++ {
			switch x := r.IntN(100); {
			case x < 1:
				now += calSize + r.Int64N(3*calSize)
			case x < 30:
				from := now + r.Int64N(700)
				to := from + r.Int64N(8)
				c.HoldPorts(from, to)
				ref.mark(from, to)
			case x < 60:
				q := max(0, now-r.Int64N(holdHorizon/8)+r.Int64N(800))
				if got, want := c.Busy(q), ref.busy(q); got != want {
					t.Fatalf("seed %d op %d: Busy(%d) = %v, stamp calendar %v", seed, op, q, got, want)
				}
			case x < 80:
				q := max(0, now-r.Int64N(300)+r.Int64N(800))
				if got, want := c.NextFree(q), ref.nextFree(q); got != want {
					t.Fatalf("seed %d op %d: NextFree(%d) = %d, stamp calendar %d", seed, op, q, got, want)
				}
			default:
				after := max(0, now-r.Int64N(300))
				before := after + r.Int64N(1200)
				if got, want := c.NextHeld(after, before), ref.nextHeld(after, before); got != want {
					t.Fatalf("seed %d op %d: NextHeld(%d, %d) = %d, stamp calendar %d",
						seed, op, after, before, got, want)
				}
			}
			now += r.Int64N(5)
		}
	}
}

// TestBufferReservePicksEarliestLowest: Reserve allocates the entry that
// frees earliest, the lowest-index one among ties, and grants the later of
// the port-free cycle and that entry's free cycle.
func TestBufferReservePicksEarliestLowest(t *testing.T) {
	for _, entries := range []int{1, 2, 3, 8, 13} {
		b := NewBuffer("B", entries)
		b.SetIRAW(true, 2, true)
		r := rand.New(rand.NewPCG(uint64(entries), 3))
		cycle := int64(0)
		for op := 0; op < 5000; op++ {
			cycle += r.Int64N(6)
			want := 0
			for i, f := range b.freeAt {
				if f < b.freeAt[want] {
					want = i
				}
			}
			grant := max(b.holds.firstFree(cycle), b.freeAt[want])
			if got := b.Reserve(cycle); got != grant || b.reserved != want {
				t.Fatalf("entries=%d op %d: Reserve = (%d, entry %d), want (%d, entry %d)",
					entries, op, got, b.reserved, grant, want)
			}
			// Coarse occupancies make equal free cycles, and so ties, common.
			b.Commit(grant, grant+r.Int64N(4)*8)
		}
	}
}
