package ckpt_test

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"lowvcc/internal/cache"
	"lowvcc/internal/circuit"
	"lowvcc/internal/ckpt"
	"lowvcc/internal/core"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

// recordAt locates the newest record of key among dir's record files:
// its file, and its offset and length there. A header line is "<magic>
// <key> <sha256> <length>", so the key's bytes find it.
func recordAt(t *testing.T, dir, key string) (path string, off, n int) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.rec"))
	if err != nil {
		t.Fatal(err)
	}
	for i := len(names) - 1; i >= 0; i-- {
		data, err := os.ReadFile(names[i])
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.LastIndex(data, []byte(" "+key+" "))
		if at < 0 {
			continue
		}
		nl := at + bytes.IndexByte(data[at:], '\n')
		size, err := strconv.Atoi(strings.Fields(string(data[at:nl]))[2])
		if err != nil {
			t.Fatal(err)
		}
		off = at - len("lowvccrec1")
		return names[i], off, nl + 1 + size - off
	}
	t.Fatalf("no record of %s in %s", key, dir)
	return "", 0, 0
}

// flipRecord flips the last payload byte of key's newest record: same
// length, bad checksum.
func flipRecord(t *testing.T, dir, key string) {
	t.Helper()
	path, off, n := recordAt(t, dir, key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off+n-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// indexed returns the keys st's log indexes.
func indexed(st *ckpt.Store) []string {
	_, records := ckpt.Residency(st)
	return records
}

// dirBytes sums the sizes of the regular files in dir, skipping dot-named
// temp files.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() && !strings.HasPrefix(e.Name(), ".") {
			n += info.Size()
		}
	}
	return n
}

// TestBudgetEvictsSnapshotsLRU: squeezing the byte budget evicts whole
// snapshot records oldest-use first, and a sweep warmed through the
// shrunken store remains result-identical to a live replay (eviction costs
// work, never results).
func TestBudgetEvictsSnapshotsLRU(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	th := "budget-trace"
	wk := ckpt.WarmConfigKey(cfg)
	dir := t.TempDir()

	st, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.SetBudget(1 << 40) // activate tracking before any write
	c := core.MustNew(cfg)
	const interval, n = 5000, 20000
	if err := st.WarmTo(c, th, wk, interval, tr, n); err != nil {
		t.Fatal(err)
	}
	if records := len(indexed(st)); records != n/interval {
		t.Fatalf("log indexes %d snapshot records, want %d", records, n/interval)
	}
	full := st.DiskUsage()
	if full <= 0 || full != dirBytes(t, dir) {
		t.Fatalf("DiskUsage = %d, %d bytes on disk", full, dirBytes(t, dir))
	}

	// Squeeze: force at least one eviction. The shallowest boundary is the
	// least recently written, so it goes first.
	st.SetBudget(full - 1)
	if s := st.Stats(); s.Evictions == 0 {
		t.Fatal("no evictions after squeezing below usage")
	}
	if st.DiskUsage() > full-1 {
		t.Errorf("DiskUsage %d over budget %d", st.DiskUsage(), full-1)
	}
	// A fresh store over the directory sees the survivors only; the
	// deepest (most recently used) boundary must be among them.
	st2, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Get(ckpt.SnapshotKey(th, wk, n)); !ok {
		t.Error("most recently used snapshot was evicted")
	}
	if _, ok := st2.Get(ckpt.SnapshotKey(th, wk, interval)); ok {
		t.Error("LRU snapshot survived the squeeze")
	}

	// Warming through the evicted store must still equal a live replay.
	warmed := core.MustNew(cfg)
	if err := st2.WarmTo(warmed, th, wk, interval, tr, n); err != nil {
		t.Fatal(err)
	}
	got, err := warmed.RunWarmed(tr, n)
	if err != nil {
		t.Fatal(err)
	}
	live := core.MustNew(cfg)
	if err := live.WarmReplay(tr, n); err != nil {
		t.Fatal(err)
	}
	want, err := live.RunWarmed(tr, n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("warmed run through evicted store differs from live replay")
	}
}

// TestBudgetSeedsFromDisk: SetBudget on a store opened over an existing
// directory accounts for the record files already there. Files of earlier
// layouts (a per-snapshot file, a manifest, a component blob and a segment
// of the journal's earlier frame) are neither read, counted nor deleted.
func TestBudgetSeedsFromDisk(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	dir := t.TempDir()
	st, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := core.MustNew(cfg)
	if err := st.WarmTo(c, "t", "w", 5000, tr, 15000); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	recBytes := dirBytes(t, dir)
	oldKey := ckpt.SnapshotKey("t", "w", 20000)
	oldLayout := []string{oldKey + ".snap", oldKey + ".ckpt", "blob-" + strings.Repeat("0", 64), "0000000000000000-old.seg"}
	for _, name := range oldLayout {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("lowvccjnl1 old layout\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reopened, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reopened.SetBudget(1 << 40)
	if u := reopened.DiskUsage(); u <= 0 || u != recBytes {
		t.Fatalf("reopened store tracks %d bytes, record files hold %d", u, recBytes)
	}
	reopened.SetBudget(reopened.DiskUsage() - 1)
	if s := reopened.Stats(); s.Evictions == 0 {
		t.Error("no eviction after seeding from disk")
	}
	if m := len(indexed(reopened)); m >= 3 {
		t.Errorf("snapshot records = %d, want < 3 after eviction", m)
	}
	if _, ok := reopened.Get(oldKey); ok {
		t.Error("Get read an old-layout file")
	}
	reopened.SetBudget(1)
	for _, name := range oldLayout {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("old-layout file %s: %v", name, err)
		}
	}
}

// TestBudgetForgetsDroppedSnapshots: a snapshot record Get finds corrupt,
// and a snapshot WarmTo cannot restore, leave the log's index without
// counting as evictions; DiskUsage keeps equalling the bytes on disk, and
// a full squeeze counts one eviction per snapshot still indexed and leaves
// no record file behind.
func TestBudgetForgetsDroppedSnapshots(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	th, wk := "drift-trace", ckpt.WarmConfigKey(cfg)
	const interval, n = 5000, 20000
	dir := t.TempDir()
	st, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WarmTo(core.MustNew(cfg), th, wk, interval, tr, n); err != nil {
		t.Fatal(err)
	}
	checkUsage := func(st *ckpt.Store, when string) {
		t.Helper()
		if u, disk := st.DiskUsage(), dirBytes(t, dir); u != disk {
			t.Errorf("%s: DiskUsage = %d, %d bytes on disk", when, u, disk)
		}
	}

	reopened, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reopened.SetBudget(1 << 40)
	deepest := ckpt.SnapshotKey(th, wk, n)
	flipRecord(t, dir, deepest)
	if _, ok := reopened.Get(deepest); ok {
		t.Fatal("corrupt snapshot loaded")
	}
	checkUsage(reopened, "after Get dropped the corrupt snapshot")
	if got := len(indexed(reopened)); got != n/interval-1 {
		t.Fatalf("%d snapshots indexed after the drop, want %d", got, n/interval-1)
	}

	// Restore failures: a core whose UL1 has another geometry cannot take
	// these snapshots, so WarmTo drops each and recaptures it live.
	other := cfg
	other.Hierarchy.UL1.Sets /= 2
	if err := reopened.WarmTo(core.MustNew(other), th, wk, interval, tr, n); err != nil {
		t.Fatal(err)
	}
	if s := reopened.Stats(); s.Corrupt < 2 || s.Evictions != 0 {
		t.Fatalf("restore failures not counted, or counted as evictions (stats %+v)", s)
	}
	checkUsage(reopened, "after restore failures")

	left := uint64(len(indexed(reopened)))
	reopened.SetBudget(1)
	if ev := reopened.Stats().Evictions; ev != left {
		t.Errorf("full squeeze counted %d evictions, %d snapshots were indexed", ev, left)
	}
	if disk := dirBytes(t, dir); disk != 0 || reopened.DiskUsage() != 0 {
		t.Errorf("after a full squeeze: %d bytes on disk, DiskUsage %d", disk, reopened.DiskUsage())
	}
}

// TestBudgetConcurrentWarmTo: goroutines warming different traces through
// one budgeted store keep the accounting equal to the bytes on disk.
func TestBudgetConcurrentWarmTo(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	wk := ckpt.WarmConfigKey(cfg)
	dir := t.TempDir()
	st, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.SetBudget(1 << 40)
	if err := st.WarmTo(core.MustNew(cfg), "probe", wk, 2000, tr, 2000); err != nil {
		t.Fatal(err)
	}
	st.SetBudget(5 * st.DiskUsage())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 2000; n <= 8000; n += 2000 {
				if err := st.WarmTo(core.MustNew(cfg), fmt.Sprint("trace-", g), wk, 2000, tr, n); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if u, disk := st.DiskUsage(), dirBytes(t, dir); u != disk || st.Stats().Evictions == 0 {
		t.Errorf("DiskUsage = %d, %d bytes on disk, stats %+v", u, disk, st.Stats())
	}
}

// lruModel is the documented policy for one store handle over its log:
// the records on disk in file order, the handle's index and recency, the
// snapshots it holds decoded, and the log's compaction to ⅞ of the budget.
type lruModel struct {
	budget    int64
	disk      []*modelRec          // every record on disk, oldest first
	index     map[string]*modelRec // the handle's index
	use       map[string]int64
	mem       map[string]bool // under a budget, only indexed keys
	seq       int64
	evictions uint64
	written   int64 // size of the last snapshot the current step wrote
}

type modelRec struct {
	key     string
	size    int64
	corrupt bool
}

func (m *lruModel) total() (n int64) {
	for _, r := range m.disk {
		n += r.size
	}
	return n
}

// touch is a use of k's record (journal.Has and every read), reporting
// whether the log indexes k.
func (m *lruModel) touch(k string) bool {
	if m.index[k] == nil {
		return false
	}
	m.seq++
	m.use[k] = m.seq
	return true
}

// get is Store.Get: memory first, then the record, forgotten if corrupt.
func (m *lruModel) get(k string) bool {
	if m.mem[k] {
		m.touch(k)
		return true
	}
	if !m.touch(k) || m.index[k].corrupt {
		delete(m.index, k)
		return false
	}
	m.mem[k] = true
	return true
}

// warmTo is Store.WarmTo of boundary n: probe from the deepest boundary
// down, then capture every later boundary neither held in memory nor
// indexed.
func (m *lruModel) warmTo(key func(int) string, size int64, interval, n int) {
	pos := 0
	for b := n / interval * interval; b >= interval; b -= interval {
		if m.get(key(b)) {
			pos = b
			break
		}
	}
	for b := pos + interval; b <= n; b += interval {
		k := key(b)
		if m.mem[k] || m.touch(k) {
			continue
		}
		m.mem[k] = true
		m.index[k] = &modelRec{key: k, size: size}
		m.disk = append(m.disk, m.index[k])
		m.touch(k)
		m.written = size
		m.enforce(k)
	}
}

// reopen is a fresh handle: it indexes the records on disk in file order,
// the last copy of a key winning, and holds nothing decoded.
func (m *lruModel) reopen() {
	m.index, m.use, m.mem = map[string]*modelRec{}, map[string]int64{}, map[string]bool{}
	for _, r := range m.disk {
		m.index[r.key] = r
		m.touch(r.key)
	}
	m.setBudget(m.budget)
}

// enforce is the log's compaction, sparing keep, followed by dropping the
// decoded snapshots of keys it evicted.
func (m *lruModel) enforce(keep string) {
	if m.budget > 0 && m.total() > m.budget {
		keys := make([]string, 0, len(m.index))
		for k := range m.index {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool { return m.use[keys[a]] > m.use[keys[b]] })
		kept, sum := 0, int64(0)
		for ; kept < len(keys); kept++ {
			if size := m.index[keys[kept]].size; keys[kept] == keep || sum+size <= m.budget-m.budget/8 {
				sum += size
				continue
			}
			break
		}
		m.disk = nil
		for i := kept - 1; i >= 0; i-- {
			m.disk = append(m.disk, m.index[keys[i]])
			m.touch(keys[i])
		}
		for _, k := range keys[kept:] {
			delete(m.index, k)
		}
		m.evictions += uint64(len(keys) - kept)
	}
	for k := range m.mem {
		if m.budget > 0 && m.index[k] == nil {
			delete(m.mem, k)
		}
	}
}

func (m *lruModel) setBudget(budget int64) {
	m.budget = budget
	m.enforce("")
}

// TestBudgetMatchesLRUModel runs random WarmTo, Get, SetBudget, reopen
// and corrupt-a-record sequences over two traces and two hierarchy
// geometries (so snapshot sizes differ) against lruModel. After every step
// the log indexes exactly the model's keys and the store holds exactly its
// decoded snapshots, DiskUsage equals the model and the bytes on disk and
// stays within budget apart from the snapshot the step just wrote,
// Evictions counts exactly the records the model dropped, and every
// intact indexed snapshot loads from a fresh handle.
func TestBudgetMatchesLRUModel(t *testing.T) {
	const interval = 400
	type family struct {
		cfg    core.Config
		tr     *trace.Trace
		th, wk string
		size   int64
	}
	var fams []family
	for _, sets := range []int{4, 8} {
		cfg := core.DefaultConfig(500, circuit.ModeIRAW)
		for _, c := range []*cache.Config{&cfg.Hierarchy.IL0, &cfg.Hierarchy.DL0, &cfg.Hierarchy.UL1} {
			c.Sets = sets
		}
		cfg.Hierarchy.ITLB.Sets, cfg.Hierarchy.DTLB.Sets = 2, 2
		// Every snapshot record of one geometry has the same size.
		probe := t.TempDir()
		st, err := ckpt.Open(probe)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WarmTo(core.MustNew(cfg), "probe", "probe", interval, workload.LongTrace(2000, 1), interval); err != nil {
			t.Fatal(err)
		}
		size := dirBytes(t, probe)
		for seed := uint64(1); seed <= 2; seed++ {
			fams = append(fams, family{cfg, workload.LongTrace(2000, seed), fmt.Sprint("trace-", seed), ckpt.WarmConfigKey(cfg), size})
		}
	}
	unit := fams[0].size
	budgets := []int64{0, unit / 2, 2 * unit, 3*unit + unit/3, 6 * unit}
	depths := []int{interval, 2 * interval, 3 * interval, 4 * interval, 4*interval + interval/2}

	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		st, err := ckpt.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := &lruModel{index: map[string]*modelRec{}, use: map[string]int64{}, mem: map[string]bool{}}
		var evBase uint64 // model evictions before the current handle
		exempt := int64(0)
		for step := 0; step < 80; step++ {
			f := fams[rng.Intn(len(fams))]
			key := func(b int) string { return ckpt.SnapshotKey(f.th, f.wk, b) }
			n := depths[rng.Intn(len(depths))]
			switch op := rng.Intn(10); {
			case op < 4:
				m.written = 0
				if err := st.WarmTo(core.MustNew(f.cfg), f.th, f.wk, interval, f.tr, n); err != nil {
					t.Fatal(err)
				}
				m.warmTo(key, f.size, interval, n)
				if m.written > 0 {
					exempt = m.written
				}
			case op < 6:
				if _, ok := st.Get(key(n / interval * interval)); ok != m.get(key(n/interval*interval)) {
					t.Fatalf("seed %d step %d: Get hit = %v, model says %v", seed, step, ok, !ok)
				}
			case op < 8:
				b := budgets[rng.Intn(len(budgets))]
				st.SetBudget(b)
				m.setBudget(b)
				exempt = 0
			case op < 9:
				evBase = m.evictions
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if st, err = ckpt.Open(dir); err != nil {
					t.Fatal(err)
				}
				st.SetBudget(m.budget)
				m.reopen()
				exempt = 0
			default:
				// Flip a payload byte of a random intact indexed record.
				var keys []string
				for k, r := range m.index {
					if !r.corrupt {
						keys = append(keys, k)
					}
				}
				if len(keys) == 0 {
					break
				}
				sort.Strings(keys)
				k := keys[rng.Intn(len(keys))]
				flipRecord(t, dir, k)
				m.index[k].corrupt = true
			}

			if got := st.Stats().Evictions; got != m.evictions-evBase {
				t.Fatalf("seed %d step %d: Evictions = %d, model dropped %d", seed, step, got, m.evictions-evBase)
			}
			snaps, records := ckpt.Residency(st)
			if want := slices.Sorted(maps.Keys(m.index)); !slices.Equal(records, want) {
				t.Fatalf("seed %d step %d: the log's index differs from the model's (%d and %d keys)", seed, step, len(records), len(want))
			}
			if want := slices.Sorted(maps.Keys(m.mem)); !slices.Equal(snaps, want) {
				t.Fatalf("seed %d step %d: the decoded snapshots differ from the model's (%d and %d)", seed, step, len(snaps), len(want))
			}
			if disk := dirBytes(t, dir); disk != m.total() {
				t.Fatalf("seed %d step %d: %d bytes on disk, model %d", seed, step, disk, m.total())
			}
			want := int64(0)
			if m.budget > 0 {
				want = m.total()
			}
			if u := st.DiskUsage(); u != want || (m.budget > 0 && u > max(m.budget, exempt)) {
				t.Fatalf("seed %d step %d: DiskUsage = %d, model %d, budget %d", seed, step, u, want, m.budget)
			}
			fresh, err := ckpt.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for k, r := range m.index {
				if r.corrupt {
					continue // a fresh Get would drop it
				}
				if _, ok := fresh.Get(k); !ok {
					t.Fatalf("seed %d step %d: indexed snapshot does not load from a fresh handle", seed, step)
				}
			}
		}
	}
}
