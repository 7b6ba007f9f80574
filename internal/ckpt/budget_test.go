package ckpt_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
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

// snapFiles lists the snapshot files in a store directory, name → size.
func snapFiles(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]int64{}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".snap") {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = info.Size()
		}
	}
	return files
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
// snapshot files oldest-use first, and a sweep warmed through the shrunken
// store remains result-identical to a live replay (eviction costs work,
// never results).
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
	st.SetBudget(1 << 40) // activate tracking before any flush
	c := core.MustNew(cfg)
	const interval, n = 5000, 20000
	if err := st.WarmTo(c, th, wk, interval, tr, n); err != nil {
		t.Fatal(err)
	}
	if files := len(snapFiles(t, dir)); files != n/interval {
		t.Fatalf("dir holds %d snapshot files, want %d", files, n/interval)
	}
	full := st.DiskUsage()
	if full <= 0 || full != dirBytes(t, dir) {
		t.Fatalf("DiskUsage = %d, %d bytes on disk", full, dirBytes(t, dir))
	}

	// Squeeze: force at least one eviction. The shallowest boundary is the
	// least recently flushed, so it goes first.
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
// directory reconstructs sizes and mtime-ordered recency from the files
// themselves. Files of the earlier layout (a manifest and a component
// blob) are neither read, counted nor deleted.
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
	oldKey := ckpt.SnapshotKey("t", "w", 20000)
	oldLayout := []string{oldKey + ".ckpt", "blob-" + strings.Repeat("0", 64)}
	for _, name := range oldLayout {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("lowvccckpt1 old layout\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reopened, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reopened.SetBudget(1 << 40)
	var snapBytes int64
	for _, size := range snapFiles(t, dir) {
		snapBytes += size
	}
	if u := reopened.DiskUsage(); u <= 0 || u != snapBytes {
		t.Fatalf("reopened store tracks %d bytes, snapshot files hold %d", u, snapBytes)
	}
	reopened.SetBudget(reopened.DiskUsage() - 1)
	if s := reopened.Stats(); s.Evictions == 0 {
		t.Error("no eviction after seeding from disk")
	}
	if m := len(snapFiles(t, dir)); m >= 3 {
		t.Errorf("snapshot files = %d, want < 3 after eviction", m)
	}
	if _, ok := reopened.Get(oldKey); ok {
		t.Error("Get read an old-layout manifest")
	}
	reopened.SetBudget(1)
	for _, name := range oldLayout {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("old-layout file %s: %v", name, err)
		}
	}
}

// TestBudgetForgetsDroppedSnapshots: a snapshot file Get finds corrupt, and
// a snapshot WarmTo cannot restore, leave the disk and the budget
// accounting together, so DiskUsage keeps equalling the bytes on disk and
// a full squeeze counts one eviction per snapshot still there.
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
	// onDisk counts the boundaries that still have a file on disk.
	onDisk := func() uint64 {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var count uint64
		for b := interval; b <= n; b += interval {
			for _, e := range ents {
				if strings.HasPrefix(e.Name(), ckpt.SnapshotKey(th, wk, b)) {
					count++
					break
				}
			}
		}
		return count
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
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), deepest) {
			if err := os.Truncate(filepath.Join(dir, e.Name()), 100); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, ok := reopened.Get(deepest); ok {
		t.Fatal("truncated snapshot loaded")
	}
	checkUsage(reopened, "after Get dropped the corrupt snapshot")
	if got := onDisk(); got != n/interval-1 {
		t.Fatalf("%d snapshots on disk after the drop, want %d", got, n/interval-1)
	}

	// Restore failures: a core whose UL1 has another geometry cannot take
	// these snapshots, so WarmTo drops each and recaptures it live.
	other := cfg
	other.Hierarchy.UL1.Sets /= 2
	if err := reopened.WarmTo(core.MustNew(other), th, wk, interval, tr, n); err != nil {
		t.Fatal(err)
	}
	if s := reopened.Stats(); s.Corrupt < 2 {
		t.Fatalf("restore failures not counted (stats %+v)", s)
	}
	checkUsage(reopened, "after restore failures")

	left := onDisk()
	reopened.SetBudget(1)
	if ev := reopened.Stats().Evictions; ev != left {
		t.Errorf("full squeeze counted %d evictions, %d snapshots were on disk", ev, left)
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

// lruModel is the documented budget policy for one store handle: a plain
// LRU over snapshot files, where a handle that starts accounting (a budget
// switched on, or a reopen) ranks the files by modification time.
type lruModel struct {
	budget, total int64
	files         map[string]*modelFile // the snapshot files on disk
	mem           map[string]bool       // the handle's in-memory snapshots; under a budget, only accounted files
	tracked       bool                  // the handle has an active budget
	seq           int64
	evictions     uint64
	written       int64 // size of the last snapshot the current step wrote
}

type modelFile struct {
	size, use int64
	corrupt   bool
}

func (m *lruModel) touch(k string) {
	if f := m.files[k]; f != nil && m.tracked {
		m.seq++
		f.use = m.seq
	}
}

// forget drops a file, and under a budget its in-memory snapshot with it.
func (m *lruModel) forget(k string) {
	m.total -= m.files[k].size
	delete(m.files, k)
	if m.tracked {
		delete(m.mem, k)
	}
}

// get is Store.Get: memory first, then a file, which is dropped if corrupt.
func (m *lruModel) get(k string) bool {
	if !m.mem[k] {
		f := m.files[k]
		if f == nil {
			return false
		}
		if f.corrupt {
			m.forget(k)
			return false
		}
		m.mem[k] = true
	}
	m.touch(k)
	return true
}

// warmTo is Store.WarmTo of boundary n: probe from the deepest boundary
// down, then capture every later boundary that has neither a snapshot in
// memory nor a file.
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
		if m.mem[k] || m.files[k] != nil {
			continue
		}
		m.mem[k] = true
		m.seq++
		m.files[k] = &modelFile{size: size, use: m.seq}
		m.total += size
		m.written = size
		m.enforce(k)
	}
}

// setBudget mirrors SetBudget; switching accounting on ranks the files by
// (mtime, name) as found on disk.
func (m *lruModel) setBudget(t *testing.T, dir string, budget int64) {
	m.budget = budget
	if budget <= 0 {
		m.tracked = false
		return
	}
	if !m.tracked {
		m.tracked = true
		type aged struct {
			key string
			mt  int64
		}
		var order []aged
		for k := range m.files {
			info, err := os.Stat(filepath.Join(dir, k+".snap"))
			if err != nil {
				t.Fatal(err)
			}
			order = append(order, aged{k, info.ModTime().UnixNano()})
		}
		sort.Slice(order, func(a, b int) bool {
			if order[a].mt != order[b].mt {
				return order[a].mt < order[b].mt
			}
			return order[a].key < order[b].key
		})
		for _, o := range order {
			m.seq++
			m.files[o.key].use = m.seq
		}
	}
	m.enforce("")
}

// enforce evicts the least recently used files other than keep until the
// total fits the budget.
func (m *lruModel) enforce(keep string) {
	if !m.tracked || m.total <= m.budget {
		return
	}
	var keys []string
	for k := range m.files {
		if k != keep {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool { return m.files[keys[a]].use < m.files[keys[b]].use })
	for _, k := range keys {
		if m.total <= m.budget {
			return
		}
		m.forget(k)
		m.evictions++
	}
}

// TestBudgetMatchesLRUModel runs random WarmTo, Get, SetBudget, reopen and
// corrupt-a-file sequences over two traces and two hierarchy geometries
// (so snapshot sizes differ) against lruModel. After every step DiskUsage
// equals the model and the bytes on disk and stays within budget apart
// from the snapshot the step just wrote, Evictions counts exactly the
// files the model dropped, and every intact survivor loads from a fresh
// handle.
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
		// Every snapshot of one geometry has the same encoded size.
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
		m := &lruModel{files: map[string]*modelFile{}, mem: map[string]bool{}}
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
				m.setBudget(t, dir, b) // reads the mtimes before the store evicts
				st.SetBudget(b)
				exempt = 0
			case op < 9:
				evBase = m.evictions
				if st, err = ckpt.Open(dir); err != nil {
					t.Fatal(err)
				}
				m.mem, m.tracked = map[string]bool{}, false
				m.setBudget(t, dir, m.budget)
				st.SetBudget(m.budget)
				exempt = 0
			default:
				// Flip a payload byte of a random intact file: same size,
				// bad checksum.
				var keys []string
				for k, f := range m.files {
					if !f.corrupt {
						keys = append(keys, k)
					}
				}
				if len(keys) == 0 {
					break
				}
				sort.Strings(keys)
				k := keys[rng.Intn(len(keys))]
				path := filepath.Join(dir, k+".snap")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)-1] ^= 0xFF
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				m.files[k].corrupt = true
			}

			if got := st.Stats().Evictions; got != m.evictions-evBase {
				t.Fatalf("seed %d step %d: Evictions = %d, model dropped %d", seed, step, got, m.evictions-evBase)
			}
			disk := snapFiles(t, dir)
			var diskBytes int64
			for _, size := range disk {
				diskBytes += size
			}
			if len(disk) != len(m.files) || diskBytes != m.total {
				t.Fatalf("seed %d step %d: %d files / %d bytes on disk, model %d / %d", seed, step, len(disk), diskBytes, len(m.files), m.total)
			}
			want := int64(0)
			if m.tracked {
				want = m.total
			}
			if u := st.DiskUsage(); u != want || (m.budget > 0 && u > max(m.budget, exempt)) {
				t.Fatalf("seed %d step %d: DiskUsage = %d, model %d, budget %d", seed, step, u, want, m.budget)
			}
			fresh, err := ckpt.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for k, f := range m.files {
				if _, ok := disk[k+".snap"]; !ok {
					t.Fatalf("seed %d step %d: model file %s missing on disk", seed, step, k)
				}
				if f.corrupt {
					continue // a fresh Get would drop it
				}
				if _, ok := fresh.Get(k); !ok {
					t.Fatalf("seed %d step %d: surviving snapshot does not load from a fresh handle", seed, step)
				}
			}
		}
	}
}
