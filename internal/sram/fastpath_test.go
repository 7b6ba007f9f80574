package sram

import (
	"testing"

	"lowvcc/internal/rng"
)

// TestPerSetFastReadEquivalence fuzzes the per-set ready-bound fast read
// against the maxReady-gated slow path: identical write/read sequences
// (interrupted and not, in and out of stabilization windows, across sets)
// must produce identical data, cleanliness, statistics and corruption
// state — including the per-set corrupt counts, which are checked against
// a direct scan.
func TestPerSetFastReadEquivalence(t *testing.T) {
	cfg := Config{Name: "T", Entries: 24, EntriesPerSet: 4}
	fast, slow := MustNew(cfg), MustNew(cfg)
	slow.SetFastPath(false)

	src := rng.New(0x5E7FA57)
	cycle := int64(1)
	for i := 0; i < 50000; i++ {
		entry := src.Intn(cfg.Entries)
		switch src.Intn(3) {
		case 0:
			word := src.Uint64()
			interrupted := src.Intn(2) == 0
			n := 1 + src.Intn(4)
			if fast.Write(cycle, entry, word, interrupted, n) != slow.Write(cycle, entry, word, interrupted, n) {
				t.Fatalf("op %d: Write accept diverges", i)
			}
		default:
			fd, fok := fast.Read(cycle, entry)
			sd, sok := slow.Read(cycle, entry)
			if fok != sok || fd != sd {
				t.Fatalf("op %d: Read(%d, %d) = (%x,%v) vs (%x,%v)", i, cycle, entry, fd, fok, sd, sok)
			}
		}
		// Mostly dwell inside stabilization windows; sometimes jump past.
		if src.Intn(20) == 0 {
			cycle += 10
		} else {
			cycle += int64(src.Intn(2))
		}

		if fast.Stats() != slow.Stats() {
			t.Fatalf("op %d: stats diverge:\nfast: %+v\nslow: %+v", i, fast.Stats(), slow.Stats())
		}
		if i%64 == 0 {
			for e := 0; e < cfg.Entries; e++ {
				if fast.Corrupted(e) != slow.Corrupted(e) {
					t.Fatalf("op %d: Corrupted(%d) diverges", i, e)
				}
			}
			for e := 0; e < cfg.Entries; e += cfg.EntriesPerSet {
				scan := 0
				for k := 0; k < cfg.EntriesPerSet; k++ {
					if fast.Corrupted(e + k) {
						scan++
					}
				}
				if got := fast.CorruptInSet(e); got != scan {
					t.Fatalf("op %d: CorruptInSet(%d) = %d, scan says %d", i, e, got, scan)
				}
			}
		}
	}
}
