package journal

import (
	"bytes"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// segFiles lists the record files in dir.
func segFiles(t testing.TB, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+recExt))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestTornTailEveryOffset: a synced segment whose last record is cut at
// any byte offset — what a crash mid-append leaves — reopens with every
// earlier entry intact and the cut key missing. The torn tail counts as
// corrupt, Verify still passes, and the next Put starts a new segment
// rather than appending after the tear.
func TestTornTailEveryOffset(t *testing.T) {
	src := t.TempDir()
	j, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSync(true)
	res := sampleResult(t)
	keys := []string{Key("torn", "0"), Key("torn", "1"), Key("torn", "cut")}
	for _, k := range keys {
		if err := j.Put(&Entry{Key: k, Windows: 1, Result: res}); err != nil {
			t.Fatal(err)
		}
	}
	want := make([][]byte, 2)
	for i := range want {
		want[i], _ = j.GetRaw(keys[i])
	}
	segs := segFiles(t, src)
	if len(segs) != 1 {
		t.Fatalf("3 Puts left %d segments, want 1", len(segs))
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	cutAt := j.index[keys[2]].off
	name := filepath.Base(segs[0])

	root := t.TempDir()
	for keep := int64(1); keep < int64(len(full))-cutAt; keep++ {
		dir := filepath.Join(root, strconv.FormatInt(keep, 10))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		torn := full[:cutAt+keep]
		if err := os.WriteFile(filepath.Join(dir, name), torn, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			if got, ok := r.GetRaw(keys[i]); !ok || !bytes.Equal(got, w) {
				t.Fatalf("cut at +%d: entry %d reads back (%v) differently", keep, i, ok)
			}
		}
		if _, ok := r.Get(keys[2]); ok {
			t.Fatalf("cut at +%d: Get accepted the torn record", keep)
		}
		if c := r.Stats().Corrupt; c != 1 {
			t.Fatalf("cut at +%d: Corrupt = %d, want 1", keep, c)
		}
		if n, err := r.Verify(); err != nil || n != 2 {
			t.Fatalf("cut at +%d: Verify = (%d, %v), want (2, nil)", keep, n, err)
		}
		if err := r.Put(&Entry{Key: keys[2], Windows: 1, Result: res}); err != nil {
			t.Fatal(err)
		}
		if segs := segFiles(t, dir); len(segs) != 2 {
			t.Fatalf("cut at +%d: Put after a torn tail left %d segments, want 2", keep, len(segs))
		}
		if after, _ := os.ReadFile(filepath.Join(dir, name)); !bytes.Equal(after, torn) {
			t.Fatalf("cut at +%d: Put appended to the torn segment", keep)
		}
		if _, ok := r.Get(keys[2]); !ok {
			t.Fatalf("cut at +%d: re-Put entry not readable", keep)
		}
		os.RemoveAll(dir)
	}
}

// TestScrambledRecordMidSegment: a complete record scrambled in the middle
// of a file — at its payload's end, in the key its payload repeats, or in
// that key's field name — fails Verify, misses on Get, and leaves the
// records after it readable.
func TestScrambledRecordMidSegment(t *testing.T) {
	res := sampleResult(t)
	keys := []string{Key("mid", "0"), Key("mid", "1"), Key("mid", "2")}
	// From the record's end when negative, else from its payload's start.
	for _, at := range []int64{-2, int64(len(`{"Key":"`)) + 10, 2} {
		dir := t.TempDir()
		j, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if err := j.Put(&Entry{Key: k, Windows: 1, Result: res}); err != nil {
				t.Fatal(err)
			}
		}
		want, _ := j.GetRaw(keys[2])
		if at > 0 {
			at += int64(bytes.IndexByte(want, '\n')) + 1
		}
		flipRecordByte(t, j, keys[1], at)
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Verify(); err == nil {
			t.Errorf("flip at %d: Verify passed a scrambled record", at)
		}
		if _, ok := r.Get(keys[1]); ok {
			t.Errorf("flip at %d: Get accepted a scrambled record", at)
		}
		if got, ok := r.GetRaw(keys[2]); !ok || !bytes.Equal(got, want) {
			t.Errorf("flip at %d: the record after the scrambled one is lost", at)
		}
		if _, ok := r.Get(keys[0]); !ok {
			t.Errorf("flip at %d: the record before the scrambled one is lost", at)
		}
	}
}

// FuzzSegmentOpen writes arbitrary bytes as a segment and opens the
// directory: Open never panics or fails, and every key Get accepts
// re-seals to exactly the bytes GetRaw returns for it.
func FuzzSegmentOpen(f *testing.F) {
	res := sampleResult(f)
	var valid []byte
	for i := 0; i < 2; i++ {
		raw, err := Seal(&Entry{Key: Key("seg-fuzz", strconv.Itoa(i)), Windows: i + 1, Result: res})
		if err != nil {
			f.Fatal(err)
		}
		valid = append(valid, raw...)
	}
	scrambled := bytes.Clone(valid)
	scrambled[len(scrambled)/4] ^= 0x20
	f.Add(valid)
	f.Add(valid[:len(valid)-9])
	f.Add(scrambled)
	f.Add(append(bytes.Clone(valid), valid...))
	f.Add([]byte(magic + " " + Key("x") + " " + Key("y") + " 99999999999999999999\n"))
	nl := bytes.IndexByte(valid, '\n') // a header with junk after its length
	f.Add(append(append(bytes.Clone(valid[:nl]), 'x'), valid[nl:]...))
	// A raw record as the checkpoint store writes it, then one entry.
	f.Add(append(mustSeal(f, Key("seg-fuzz", "snap"), snapshotLike()), valid...))
	for _, bad := range slices.Sorted(maps.Keys(badKeys(Key("x")))) {
		f.Add(append(reframe(valid, badKeys(Key("x"))[bad]), valid...))
	}
	f.Add([]byte(magic + " " + Key("x") + " " + Key("y") + " 9223372036854775800\n")) // header + length overflows int64

	dir := f.TempDir() // one directory, rewritten per input: fuzzing stays fast
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, "0000000000000000-fuzz"+recExt), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(dir)
		if err != nil {
			t.Fatalf("Open failed on a readable segment: %v", err)
		}
		good := 0
		for _, key := range j.Keys() {
			if !isHex64(key) {
				t.Fatalf("Open indexed key %q", key)
			}
			if payload, ok := j.GetRecord(key); ok && !bytes.Equal(mustSeal(t, key, payload), readRecord(t, j, key)) {
				t.Fatalf("key %q: accepted record does not re-seal to its stored bytes", key)
			}
			e, ok := j.Get(key)
			if !ok {
				continue
			}
			good++
			raw, ok := j.GetRaw(key)
			sealed, err := Seal(e)
			if !ok || err != nil || !bytes.Equal(sealed, raw) {
				t.Fatalf("key %q: accepted entry does not re-seal to its stored bytes", key)
			}
		}
		if n, err := j.Verify(); err == nil && n != good {
			t.Fatalf("Verify passed %d entries, Get accepts %d", n, good)
		}
	})
}

// readRecord reads key's indexed record bytes off disk, unchecked.
func readRecord(t testing.TB, j *Journal, key string) []byte {
	t.Helper()
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, err := j.readLocked(j.index[key])
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// lruModel is the reference the budget property test runs the journal
// against: disk bytes, live entries, recency, and the order records sit
// on disk (which is what a reopened journal's recency starts from).
type lruModel struct {
	budget, total   int64
	size, use, disk map[string]int64
	seq             int64
	evictions       uint64
}

func (m *lruModel) put(k string, n int64) {
	m.total += n
	m.size[k] = n
	m.seq++
	m.use[k], m.disk[k] = m.seq, m.seq
	m.enforce(k)
}

func (m *lruModel) get(k string) bool {
	if _, ok := m.size[k]; !ok {
		return false
	}
	m.seq++
	m.use[k] = m.seq
	return true
}

// reopen forgets recency: a fresh handle ranks entries by disk order.
func (m *lruModel) reopen() {
	for k := range m.size {
		m.use[k] = m.disk[k]
	}
	m.enforce("")
}

// enforce is the documented policy: over budget, keep the most recently
// used entries (and keep itself) up to ⅞ of the budget, rewritten coldest
// first; everything else is evicted and dead bytes vanish.
func (m *lruModel) enforce(keep string) {
	if m.budget <= 0 || m.total <= m.budget {
		return
	}
	keys := make([]string, 0, len(m.size))
	for k := range m.size {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return m.use[keys[a]] > m.use[keys[b]] })
	kept, sum := 0, int64(0)
	for _, k := range keys {
		if k != keep && sum+m.size[k] > m.budget-m.budget/8 {
			break
		}
		kept++
		sum += m.size[k]
	}
	for i := kept - 1; i >= 0; i-- {
		m.seq++
		m.disk[keys[i]] = m.seq
	}
	for _, k := range keys[kept:] {
		delete(m.size, k)
		delete(m.use, k)
		delete(m.disk, k)
	}
	m.evictions += uint64(len(keys) - kept)
	m.total = sum
}

// TestBudgetMatchesLRUModel runs random Put, Get, SetBudget and reopen
// sequences against lruModel. The just-written entry is always readable,
// DiskUsage tracks the model and stays within budget apart from that
// exempt entry, Evictions counts exactly the entries the model dropped,
// and every survivor verifies.
func TestBudgetMatchesLRUModel(t *testing.T) {
	res := sampleResult(t)
	const nkeys = 10
	entries := make([]*Entry, nkeys)
	sizes := make([]int64, nkeys)
	for i := range entries {
		r := *res
		r.TraceName = strings.Repeat("x", 200*i) // spread record sizes
		entries[i] = &Entry{Key: Key("model", strconv.Itoa(i)), Windows: 1, Result: &r}
		raw, err := Seal(entries[i])
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = int64(len(raw))
	}
	unit := sizes[0]
	budgets := []int64{0, unit / 2, 2 * unit, 3*unit + unit/3, 6 * unit}

	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		j, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := &lruModel{size: map[string]int64{}, use: map[string]int64{}, disk: map[string]int64{}}
		var evBase uint64 // model evictions before the current handle
		// exempt is the size of the last Put's entry, which may sit over
		// budget until the next enforcement without an exemption.
		exempt := int64(0)
		for step := 0; step < 150; step++ {
			i := rng.Intn(nkeys)
			k := entries[i].Key
			switch op := rng.Intn(10); {
			case op < 5:
				if err := j.Put(entries[i]); err != nil {
					t.Fatal(err)
				}
				m.put(k, sizes[i])
				exempt = sizes[i]
				if _, ok := j.Get(k); !ok {
					t.Fatalf("seed %d step %d: just-written entry unreadable", seed, step)
				}
				m.get(k)
			case op < 8:
				if _, ok := j.Get(k); ok != m.get(k) {
					t.Fatalf("seed %d step %d: Get hit = %v, model says %v", seed, step, ok, !ok)
				}
			case op < 9:
				m.budget = budgets[rng.Intn(len(budgets))]
				j.SetBudget(m.budget)
				m.enforce("")
				exempt = 0
			default:
				evBase = m.evictions
				if j, err = Open(dir); err != nil {
					t.Fatal(err)
				}
				j.SetBudget(m.budget)
				m.reopen()
				exempt = 0
			}
			if got := j.Stats().Evictions; got != m.evictions-evBase {
				t.Fatalf("seed %d step %d: Evictions = %d, model dropped %d", seed, step, got, m.evictions-evBase)
			}
			if m.budget > 0 {
				if u := j.DiskUsage(); u != m.total || u > max(m.budget, exempt) {
					t.Fatalf("seed %d step %d: DiskUsage = %d, model %d, budget %d", seed, step, u, m.total, m.budget)
				}
			}
		}
		if n, err := j.Verify(); err != nil || n != len(m.size) {
			t.Fatalf("seed %d: Verify = (%d, %v), model holds %d", seed, n, err, len(m.size))
		}
	}
}

// BenchmarkAdmit admits sealed ~2.5 KiB entries with fsync on from two
// goroutines, the daemon's upload path without HTTP. It reports the wall
// time per entry and the files created per entry.
func BenchmarkAdmit(b *testing.B) {
	res := sampleResult(b)
	keys := make([]string, b.N)
	raws := make([][]byte, b.N)
	for i := range raws {
		keys[i] = Key("bench-admit", strconv.Itoa(i))
		var err error
		if raws[i], err = Seal(&Entry{Key: keys[i], Windows: 1, Result: res}); err != nil {
			b.Fatal(err)
		}
	}
	dir := b.TempDir()
	j, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	j.SetSync(true)
	b.SetBytes(int64(len(raws[0])))
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
				if _, err := j.Admit(keys[i], raws[i]); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	files, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/entry")
	b.ReportMetric(float64(len(files))/float64(b.N), "files/entry")
}
