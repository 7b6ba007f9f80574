package journal

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/workload"
)

// sampleResult produces a real simulation Result so the round-trip test
// exercises every populated field, not a zero value.
func sampleResult(t testing.TB) *core.Result {
	t.Helper()
	tr := workload.Generate(workload.SpecInt(), 3000, 1)
	res, err := core.MustNew(core.DefaultConfig(500, circuit.ModeIRAW)).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEntryRoundTrip is the journal's core guarantee: a Get after a Put
// returns a Result bit-identical to the recorded one (reflect.DeepEqual
// over every counter and float).
func TestEntryRoundTrip(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := sampleResult(t)
	key := Key("trace-hash", "cfg-hash", core.EngineVersion)
	if err := j.Put(&Entry{Key: key, Windows: 3, Result: res}); err != nil {
		t.Fatal(err)
	}
	got, ok := j.Get(key)
	if !ok {
		t.Fatal("Get missed a just-written entry")
	}
	if got.Windows != 3 {
		t.Errorf("Windows = %d, want 3", got.Windows)
	}
	if !reflect.DeepEqual(got.Result, res) {
		t.Errorf("replayed Result differs from recorded one:\ngot  %+v\nwant %+v", got.Result, res)
	}
	if s := j.Stats(); s.Hits != 1 || s.Corrupt != 0 {
		t.Errorf("stats = %+v, want 1 hit, 0 corrupt", s)
	}
}

// TestKeyDerivation: keys are injective over part boundaries and
// deterministic.
func TestKeyDerivation(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Error("length prefixing failed: shifted parts collide")
	}
	if Key("x", "y") != Key("x", "y") {
		t.Error("key is not deterministic")
	}
	if len(Key("x")) != 64 {
		t.Errorf("key length %d, want 64 hex chars", len(Key("x")))
	}
}

// TestMissAndCorruptEntries: absent keys miss; truncated and scrambled
// entries are rejected by the integrity check and treated as misses, then
// repaired by the next Put.
func TestMissAndCorruptEntries(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Get(Key("absent")); ok {
		t.Fatal("Get hit an absent key")
	}

	res := sampleResult(t)
	key := Key("k")
	e := &Entry{Key: key, Windows: 1, Result: res}

	// Truncated at several byte counts, including 0 and header-only.
	full, err := Seal(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{0, 5, len(full) / 2, len(full) - 1} {
		if err := j.PutTruncated(e, keep); err != nil {
			t.Fatal(err)
		}
		if _, ok := j.Get(key); ok {
			t.Errorf("Get accepted an entry truncated to %d bytes", keep)
		}
	}

	// Scrambled payload byte (length intact, checksum must catch it).
	if err := j.Put(e); err != nil {
		t.Fatal(err)
	}
	flipRecordByte(t, j, key, -2)
	if _, ok := j.Get(key); ok {
		t.Fatal("Get accepted a scrambled entry")
	}
	if s := j.Stats(); s.Corrupt == 0 {
		t.Error("corrupt entries were not counted")
	}

	// A fresh Put repairs the slot.
	if err := j.Put(e); err != nil {
		t.Fatal(err)
	}
	if got, ok := j.Get(key); !ok || !reflect.DeepEqual(got.Result, res) {
		t.Fatal("Put did not repair a corrupt entry")
	}
}

// TestWrongKeyAndStrayFiles: an entry indexed under the wrong key is
// rejected, and stray files — those of earlier layouts included — never
// count as entries.
func TestWrongKeyAndStrayFiles(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := sampleResult(t)
	if err := j.Put(&Entry{Key: Key("a"), Windows: 1, Result: res}); err != nil {
		t.Fatal(err)
	}
	// Reseal a's valid payload under b's key: the frame is intact, but the
	// payload names a.
	raw, ok := j.GetRaw(Key("a"))
	if !ok {
		t.Fatal("GetRaw missed a just-written entry")
	}
	payload := raw[bytes.IndexByte(raw, '\n')+1:]
	forged := fmt.Sprintf("%s %s %x %d\n%s", magic, Key("b"), sha256.Sum256(payload), len(payload), payload)
	if err := os.WriteFile(filepath.Join(dir, "ffffffffffffffff-forged"+recExt), []byte(forged), 0o644); err != nil {
		t.Fatal(err)
	}
	oldSeg := fmt.Sprintf("lowvccjnl1 %x %d\n%s", sha256.Sum256(payload), len(payload), payload)
	strays := map[string]string{
		".put-stray":                      string(raw),
		Key("c") + ".cell":                string(raw),
		Key("c") + ".snap":                string(raw),
		"0000000000000000-old-layout.seg": oldSeg,
	}
	for name, data := range strays {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if j, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Get(Key("b")); ok {
		t.Fatal("Get accepted an entry whose recorded key mismatches its index key")
	}
	if _, ok := j.Get(Key("c")); ok {
		t.Fatal("Get read an entry from a stray per-key file")
	}
	if n := len(j.Keys()); n != 2 { // a's entry + b's (corrupt, but indexed) copy
		t.Errorf("%d keys indexed, want 2", n)
	}
	for name := range strays {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("stray %s: %v", name, err)
		}
	}
}

// flipRecordByte scrambles byte at (from the record's end when negative)
// of key's record in place on disk, keeping every length intact.
func flipRecordByte(t *testing.T, j *Journal, key string, at int64) {
	t.Helper()
	l := j.index[key]
	if at < 0 {
		at += l.n
	}
	f, err := os.OpenFile(filepath.Join(j.dir, l.seg.name), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, l.off+at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, l.off+at); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPuts: many goroutines writing (identical content, per the
// keying contract) and reading the same key never corrupt the entry.
func TestConcurrentPuts(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := sampleResult(t)
	key := Key("shared")
	e := &Entry{Key: key, Windows: 2, Result: res}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := j.Put(e); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if got, ok := j.Get(key); ok {
					if !reflect.DeepEqual(got.Result, res) {
						t.Error("concurrent reader observed a corrupt entry")
						return
					}
				}
				if ctx.Err() != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
}
