package journal

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestAdmitRoundTrip: GetRaw on one journal produces sealed bytes that
// Admit on a second journal (the daemon side of result push-down)
// verifies and publishes bit-identically.
func TestAdmitRoundTrip(t *testing.T) {
	worker, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	daemonDir := t.TempDir()
	daemon, err := Open(daemonDir)
	if err != nil {
		t.Fatal(err)
	}
	res := sampleResult(t)
	key := Key("trace-hash", "cfg-hash", "win=0")
	if err := worker.Put(&Entry{Key: key, Windows: 2, Result: res}); err != nil {
		t.Fatal(err)
	}
	raw, ok := worker.GetRaw(key)
	if !ok {
		t.Fatal("GetRaw missed a just-written entry")
	}
	ent, err := daemon.Admit(key, raw)
	if err != nil {
		t.Fatalf("Admit rejected valid upload: %v", err)
	}
	if ent.Windows != 2 || ent.Result == nil {
		t.Fatalf("Admit returned wrong entry: %+v", ent)
	}
	got, ok := daemon.Get(key)
	if !ok {
		t.Fatal("admitted entry not readable")
	}
	if got.Result.Time != res.Time || got.Result.TraceName != res.TraceName {
		t.Errorf("admitted entry differs: got %+v want %+v", got.Result, res)
	}
	// The record on disk must be byte-identical to the uploaded bytes.
	if onDisk := reopenRaw(t, daemonDir, key); string(onDisk) != string(raw) {
		t.Error("admitted record differs from uploaded bytes")
	}
}

// TestAdmitRejectsCorrupt: Admit runs the full integrity check before any
// byte lands — flipped payloads, truncations, key mismatches and garbage
// are all rejected with nothing written.
func TestAdmitRejectsCorrupt(t *testing.T) {
	worker, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := sampleResult(t)
	key := Key("adm-trace", "adm-cfg")
	if err := worker.Put(&Entry{Key: key, Windows: 1, Result: res}); err != nil {
		t.Fatal(err)
	}
	raw, _ := worker.GetRaw(key)

	cases := []struct {
		name string
		key  string
		data []byte
	}{
		{"flipped byte", key, append(append([]byte{}, raw[:len(raw)-3]...), raw[len(raw)-3]^0x40, raw[len(raw)-2], raw[len(raw)-1])},
		{"truncated", key, raw[:len(raw)/2]},
		{"wrong key", Key("other-trace", "adm-cfg"), raw},
		{"garbage", key, []byte("not a journal entry at all")},
		{"empty", key, nil},
		{"raw record", key, mustSeal(t, key, []byte("not an entry"))},
	}
	// Keys the frame does not admit, each in a header that is otherwise
	// exact and over a valid entry payload.
	for name, bad := range badKeys(key) {
		cases = append(cases, struct {
			name string
			key  string
			data []byte
		}{name, bad, reframe(raw, bad)})
	}
	for _, tc := range cases {
		daemon, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := daemon.Admit(tc.key, tc.data); err == nil {
			t.Errorf("%s: Admit accepted corrupt upload", tc.name)
		}
		if n := len(daemon.Keys()); n != 0 {
			t.Errorf("%s: corrupt upload landed on disk (%d entries)", tc.name, n)
		}
		if s := daemon.Stats(); s.Rejected != 1 {
			t.Errorf("%s: Rejected = %d, want 1", tc.name, s.Rejected)
		}
	}
}

// budgetJournal writes n entries of roughly equal size and returns the
// journal plus the per-entry size.
func budgetJournal(t *testing.T, n int) (*Journal, []string, int64) {
	t.Helper()
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := sampleResult(t)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = Key("budget-trace", fmt.Sprintf("cfg-%d", i))
		if err := j.Put(&Entry{Key: keys[i], Windows: 1, Result: res}); err != nil {
			t.Fatal(err)
		}
	}
	return j, keys, j.index[keys[0]].n
}

// reopenRaw reads key's sealed bytes back from disk through a fresh
// handle, so nothing the writing handle holds in memory can answer.
func reopenRaw(t *testing.T, dir, key string) []byte {
	t.Helper()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := j.GetRaw(key)
	if !ok {
		t.Fatalf("reopened journal misses %s", key)
	}
	return raw
}

// TestBudgetEvictsLRU: entries past the byte budget are evicted in
// least-recently-used order; a Get refreshes recency.
func TestBudgetEvictsLRU(t *testing.T) {
	j, keys, size := budgetJournal(t, 3)
	// Activate tracking with a roomy budget, refresh keys[0] so keys[1]
	// becomes the LRU victim, then cap at 2 entries.
	j.SetBudget(100 * size)
	if _, ok := j.Get(keys[0]); !ok {
		t.Fatal("warm get missed")
	}
	j.SetBudget(2*size + size/2)
	if s := j.Stats(); s.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", s.Evictions)
	}
	if _, ok := j.Get(keys[1]); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := j.Get(keys[0]); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := j.Get(keys[2]); !ok {
		t.Error("most recently written entry was evicted")
	}
	if u := j.DiskUsage(); u > 2*size+size/2 {
		t.Errorf("DiskUsage %d over budget", u)
	}
	// Further writes keep enforcing: adding a fourth entry evicts again,
	// and the freshly written key always survives.
	res := sampleResult(t)
	k4 := Key("budget-trace", "cfg-extra")
	if err := j.Put(&Entry{Key: k4, Windows: 1, Result: res}); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Get(k4); !ok {
		t.Error("just-written entry was evicted")
	}
	if s := j.Stats(); s.Evictions != 2 {
		t.Errorf("Evictions = %d, want 2", s.Evictions)
	}
}

// TestBudgetSeedsFromDisk: SetBudget on a journal reopened over an
// existing directory accounts for the entries already on disk.
func TestBudgetSeedsFromDisk(t *testing.T) {
	j, keys, size := budgetJournal(t, 4)
	reopened, err := Open(j.dir)
	if err != nil {
		t.Fatal(err)
	}
	reopened.SetBudget(2 * size)
	n := len(reopened.Keys())
	if n > 2 {
		t.Errorf("reopened journal holds %d entries over a 2-entry budget", n)
	}
	alive := 0
	for _, k := range keys {
		if _, ok := reopened.Get(k); ok {
			alive++
		}
	}
	if alive != n {
		t.Errorf("%d entries readable, %d on disk", alive, n)
	}
}

// TestLockPidReuse: a LOCK file whose pid is alive but whose recorded
// start time names a different process incarnation is stale — a recycled
// pid must not wedge a fresh daemon.
func TestLockPidReuse(t *testing.T) {
	if procStartTime(os.Getpid()) == "" {
		t.Skip("no /proc start time on this platform")
	}
	dir := t.TempDir()
	// Our own pid is certainly alive; stamp it with an impossible start
	// time to simulate the pid having been recycled since the lock was
	// written.
	lockPath := filepath.Join(dir, lockName)
	content := fmt.Sprintf("%d somehost 1\n", os.Getpid())
	if err := os.WriteFile(lockPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	l, warning, err := AcquireLock(dir)
	if err != nil {
		t.Fatalf("AcquireLock failed against recycled-pid lock: %v", err)
	}
	defer l.Release()
	if warning == "" {
		t.Error("reclaim of a recycled-pid lock produced no warning")
	}
	// The refreshed lock must carry our real start time, and a second
	// acquire must now see a genuinely live owner.
	data, err := os.ReadFile(lockPath)
	if err != nil {
		t.Fatal(err)
	}
	pid, start := parseLock(data)
	if pid != os.Getpid() || start != procStartTime(os.Getpid()) {
		t.Errorf("lock records (%d, %q), want (%d, %q)", pid, start, os.Getpid(), procStartTime(os.Getpid()))
	}
	if _, _, err := AcquireLock(dir); err == nil {
		t.Error("second acquire succeeded against a live owner")
	} else if !strings.Contains(err.Error(), "locked by running pid") {
		t.Errorf("unexpected error: %v", err)
	}
}

// FuzzAdmit throws arbitrary (key, bytes) uploads at Admit, the decoder a
// hostile push-down worker reaches. Nothing may panic. An accepted upload
// lands byte-for-byte and reads back under its key with a Result; a
// rejected one leaves the directory empty and is counted.
func FuzzAdmit(f *testing.F) {
	src, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	key := Key("fuzz-trace", "fuzz-cfg")
	if err := src.Put(&Entry{Key: key, Windows: 1, Result: sampleResult(f)}); err != nil {
		f.Fatal(err)
	}
	raw, ok := src.GetRaw(key)
	if !ok {
		f.Fatal("GetRaw missed a just-written entry")
	}
	flipped := append([]byte(nil), raw...)
	sum := len(magic) + 1 + len(key) + 1 // first checksum digit
	flipped[sum] ^= 0x01
	f.Add(key, raw)
	f.Add(key, raw[:len(raw)-7])
	f.Add(key, flipped)
	f.Add(Key("other-trace", "fuzz-cfg"), raw)
	f.Add(key, mustSeal(f, key, snapshotLike()))
	for _, bad := range slices.Sorted(maps.Keys(badKeys(key))) {
		f.Add(badKeys(key)[bad], reframe(raw, badKeys(key)[bad]))
	}

	f.Fuzz(func(t *testing.T, key string, data []byte) {
		j, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ent, err := j.Admit(key, data)
		if err != nil {
			if ents, _ := os.ReadDir(j.dir); len(ents) != 0 {
				t.Fatalf("rejected upload left %d files behind", len(ents))
			}
			if got := j.Stats().Rejected; got != 1 {
				t.Fatalf("Rejected = %d after a refused upload, want 1", got)
			}
			return
		}
		if ent.Key != key || ent.Result == nil || !isHex64(key) {
			t.Fatalf("Admit returned entry %q (result %v) for key %q", ent.Key, ent.Result != nil, key)
		}
		if !bytes.Equal(reopenRaw(t, j.dir, key), data) {
			t.Fatal("admitted record differs from the uploaded bytes")
		}
		got, ok := j.Get(key)
		if !ok || got.Key != key || got.Result == nil {
			t.Fatalf("Get after Admit = (%+v, %v), want the admitted entry", got, ok)
		}
	})
}

// badKeys derives, from a valid key, keys the frame does not admit.
func badKeys(key string) map[string]string {
	return map[string]string{
		"key with a space":   key[:31] + " " + key[32:],
		"key with a newline": key[:31] + "\n" + key[32:],
		"63-character key":   key[:63],
		"uppercase hex key":  strings.ToUpper(key),
		"65-character key":   key + "0",
	}
}

// reframe rebuilds record rec's header under key, keeping its payload,
// checksum and length exact.
func reframe(rec []byte, key string) []byte {
	payload := rec[bytes.IndexByte(rec, '\n')+1:]
	return append(fmt.Appendf(nil, "%s %s %x %d\n", magic, key, sha256.Sum256(payload), len(payload)), payload...)
}

// mustSeal frames payload as key's record.
func mustSeal(t testing.TB, key string, payload []byte) []byte {
	t.Helper()
	rec, err := seal(key, payload)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// snapshotLike is a binary payload shaped like a checkpoint snapshot's
// (length-prefixed components), as a raw record carries it.
func snapshotLike() []byte {
	b := make([]byte, 4096)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}
