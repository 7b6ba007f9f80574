package ckpt

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/workload"
)

// resident reports how many decoded snapshots the store holds in memory
// and how many records its log indexes.
func (s *Store) resident() (snaps, files int) {
	held, records := Residency(s)
	return len(held), len(records)
}

// Residency returns, for tests outside the package too, the keys of the
// snapshots the store holds decoded and of the records its log indexes,
// each sorted.
func Residency(s *Store) (snaps, records []string) {
	s.mu.Lock()
	snaps = slices.Sorted(maps.Keys(s.snaps))
	s.mu.Unlock()
	return snaps, s.log.Keys()
}

// TestBudgetBoundsResidentSnapshots: a 1-byte budget over 8 traces of 3
// boundaries each keeps one snapshot file, and only that one stays
// decoded in memory; re-warming an evicted boundary replays live instead
// of restoring from memory. Without a budget every snapshot stays
// resident, as before.
func TestBudgetBoundsResidentSnapshots(t *testing.T) {
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	wk := WarmConfigKey(cfg)
	const interval, n, traces = 4000, 12000, 8
	warmAll := func(st *Store) {
		for seed := uint64(1); seed <= traces; seed++ {
			if err := st.WarmTo(core.MustNew(cfg), fmt.Sprint("trace-", seed), wk, interval, workload.LongTrace(n+interval, seed), n); err != nil {
				t.Fatal(err)
			}
			if snaps, files := st.resident(); files != 0 && snaps > files {
				t.Fatalf("after trace %d: %d snapshots resident, %d files accounted", seed, snaps, files)
			}
		}
	}

	budgeted, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	budgeted.SetBudget(1)
	warmAll(budgeted)
	if snaps, files := budgeted.resident(); snaps != 1 || files != 1 {
		t.Fatalf("%d snapshots resident over %d accounted files, want 1 and 1", snaps, files)
	}
	if s := budgeted.Stats(); s.Captures != traces*n/interval || s.Evictions != s.Captures-1 {
		t.Fatalf("stats %+v: want %d captures, all but one evicted", s, traces*n/interval)
	}
	before := budgeted.Stats()
	if err := budgeted.WarmTo(core.MustNew(cfg), "trace-1", wk, interval, workload.LongTrace(n+interval, 1), n); err != nil {
		t.Fatal(err)
	}
	if s := budgeted.Stats(); s.Restores != before.Restores || s.Replays != before.Replays+1 {
		t.Fatalf("re-warming an evicted boundary: stats %+v, before %+v; want a live replay", s, before)
	}

	unbudgeted, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	warmAll(unbudgeted)
	if snaps, _ := unbudgeted.resident(); snaps != traces*n/interval {
		t.Fatalf("unbudgeted store holds %d snapshots, want all %d", snaps, traces*n/interval)
	}
}
