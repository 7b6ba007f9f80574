// Package journal persists completed sweep-cell results on disk so an
// interrupted sweep campaign can resume without re-simulating finished
// work. It is the durability half of the sim runner's resilience layer
// (sim.Runner.WithJournal) and the content-addressed result cache the
// ROADMAP's sweep-service item calls for.
//
// # Keying
//
// Entries are content-addressed: the caller derives a key from everything
// the cell's Result is a pure function of — the trace bytes, the full core
// configuration, the windowing parameters and the engine version
// (core.EngineVersion) — via Key. Two cells with the same key are
// guaranteed bit-identical by the engine's determinism contract, which is
// what makes replaying an entry indistinguishable from re-running the
// cell. Anything that changes simulated Results must change the key
// (bumping core.EngineVersion invalidates every prior entry at once).
//
// # Durability
//
// The journal is append-only at the granularity of whole entries: one
// immutable file per key, written to a temporary file first and renamed
// into place, so a crash — including kill -9 — can never leave a
// half-written entry under a final name. Defense in depth for torn writes
// that bypass the rename (a dying filesystem, fault injection): every
// entry carries a header with the payload's SHA-256 and length, and Get
// verifies both before decoding. A truncated, corrupt or undecodable entry
// is treated as a miss (and counted), never as data — the cell simply
// re-runs.
//
// Entries encode as JSON. Go's encoder emits the shortest float64
// representation that round-trips exactly and core.Result is all exported
// scalar fields, so a decoded Result is bit-identical to the recorded one
// (asserted by TestEntryRoundTrip).
package journal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"lowvcc/internal/core"
)

// Entry is one journaled cell: the stitched Result plus the shard plan
// size it was produced under (PointUpdate.Windows on replay).
type Entry struct {
	Key     string
	Windows int
	Result  *core.Result
}

// Stats is a snapshot of the journal's access counters.
type Stats struct {
	Hits, Misses uint64
	// Corrupt counts entries rejected by the integrity check (truncated or
	// scrambled files); each also counted as a miss.
	Corrupt uint64
	// WriteErrors counts failed Puts. The journal is a cache: a failed
	// write costs a future re-simulation, never correctness.
	WriteErrors uint64
	// Rejected counts uploads refused by Admit (bad header, checksum or
	// key mismatch): a byzantine or buggy uploader never lands an entry.
	Rejected uint64
	// Evictions counts entries removed by the disk-budget policy
	// (SetBudget). An evicted entry is a future miss, nothing more.
	Evictions uint64
}

// Journal is a directory of immutable cell entries. Safe for concurrent
// use by multiple goroutines (and, thanks to atomic renames, by multiple
// processes sharing the directory).
type Journal struct {
	dir  string
	sync atomic.Bool

	hits, misses, corrupt, writeErrs atomic.Uint64
	rejected, evictions              atomic.Uint64

	// Disk-budget state (SetBudget). sizes/lastUse are only populated
	// while a budget is active; all are guarded by mu.
	mu      sync.Mutex
	budget  int64
	total   int64
	sizes   map[string]int64
	lastUse map[string]int64
	useSeq  int64
}

// Open creates the journal directory if needed and returns a handle.
func Open(dir string) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("journal: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{dir: dir}, nil
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// SetSync selects fsync-on-Put: with it on, every Put fsyncs the entry
// file before the rename and the directory after it, so a published entry
// survives power loss, not just process death. Off (the default) relies on
// the atomic rename alone — crash-consistent, cheaper, and the right
// trade for the journal's cache role; the sweep daemon turns it on because
// a service's durability promise is stronger than a CLI's.
func (j *Journal) SetSync(on bool) { j.sync.Store(on) }

// Stats returns a snapshot of the access counters.
func (j *Journal) Stats() Stats {
	return Stats{
		Hits:        j.hits.Load(),
		Misses:      j.misses.Load(),
		Corrupt:     j.corrupt.Load(),
		WriteErrors: j.writeErrs.Load(),
		Rejected:    j.rejected.Load(),
		Evictions:   j.evictions.Load(),
	}
}

// Key derives a content-address from its parts: each part is
// length-prefixed before hashing, so ("ab", "c") and ("a", "bc") never
// collide. The result is a hex SHA-256, safe as a file name.
func Key(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// header is the integrity line preceding the JSON payload.
const headerMagic = "lowvccjnl1"

func (j *Journal) path(key string) string { return filepath.Join(j.dir, key+".cell") }

// Seal renders the sealed entry bytes: one header line with the
// payload's SHA-256 and length, then the payload. They are exactly what Put
// writes under e.Key and what Admit verifies, so a worker can upload a
// result without journaling it first.
func Seal(e *Entry) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding %s: %w", e.Key, err)
	}
	header := fmt.Sprintf("%s %x %d\n", headerMagic, sha256.Sum256(payload), len(payload))
	return append([]byte(header), payload...), nil
}

// Get returns the entry for key, or (nil, false) when it is absent or
// fails the integrity check. Corrupt entries count as misses: the caller
// re-runs the cell and Put overwrites the bad file.
func (j *Journal) Get(key string) (*Entry, bool) {
	data, err := os.ReadFile(j.path(key))
	if err != nil {
		j.misses.Add(1)
		return nil, false
	}
	e, err := decode(key, data)
	if err != nil {
		j.corrupt.Add(1)
		j.misses.Add(1)
		return nil, false
	}
	j.hits.Add(1)
	j.touch(key)
	return e, true
}

// GetRaw returns the sealed entry file bytes for key — header line plus
// payload, exactly as stored (Seal's output) — after running the same
// integrity check as Get.
func (j *Journal) GetRaw(key string) ([]byte, bool) {
	data, err := os.ReadFile(j.path(key))
	if err != nil {
		j.misses.Add(1)
		return nil, false
	}
	if _, err := decode(key, data); err != nil {
		j.corrupt.Add(1)
		j.misses.Add(1)
		return nil, false
	}
	j.hits.Add(1)
	j.touch(key)
	return data, true
}

// Admit verifies sealed entry bytes produced elsewhere (Seal or GetRaw,
// possibly on another machine) and publishes them under key. The
// full check runs before a single byte lands: header magic, payload
// length, SHA-256 content address, key match, decodability and a non-nil
// Result. Bytes from a buggy or byzantine uploader are rejected with an
// error and counted in Stats.Rejected; nothing is written. This is the
// daemon half of result push-down — the scheduler believes the verified
// bytes, never the worker.
func (j *Journal) Admit(key string, data []byte) (*Entry, error) {
	e, err := decode(key, data)
	if err != nil {
		j.rejected.Add(1)
		return nil, err
	}
	if err := j.writeFile(key, data); err != nil {
		return nil, err
	}
	return e, nil
}

func decode(key string, data []byte) (*Entry, error) {
	nl := strings.IndexByte(string(data), '\n')
	if nl < 0 {
		return nil, fmt.Errorf("journal: %s: truncated header", key)
	}
	var sum string
	var length int
	var magicGot string
	if _, err := fmt.Sscanf(string(data[:nl]), "%s %s %d", &magicGot, &sum, &length); err != nil || magicGot != headerMagic {
		return nil, fmt.Errorf("journal: %s: bad header", key)
	}
	payload := data[nl+1:]
	if len(payload) != length {
		return nil, fmt.Errorf("journal: %s: payload %d bytes, header says %d (truncated write)", key, len(payload), length)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(payload)); got != sum {
		return nil, fmt.Errorf("journal: %s: checksum mismatch", key)
	}
	var e Entry
	if err := json.Unmarshal(payload, &e); err != nil {
		return nil, fmt.Errorf("journal: %s: %w", key, err)
	}
	if e.Key != key {
		return nil, fmt.Errorf("journal: entry %s stored under key %s", e.Key, key)
	}
	if e.Result == nil {
		return nil, fmt.Errorf("journal: %s: entry without result", key)
	}
	return &e, nil
}

// Put records the entry under its key: written to a unique temporary file
// and renamed into place, so concurrent writers (which, by the keying
// contract, carry identical content) and crashes are both safe. Errors are
// counted and returned; callers may ignore them — a lost entry costs one
// re-simulation.
func (j *Journal) Put(e *Entry) error {
	data, err := Seal(e)
	if err != nil {
		j.writeErrs.Add(1)
		return err
	}
	return j.writeFile(e.Key, data)
}

// PutTruncated writes the entry's file cut off after keep bytes, bypassing
// the atomic-rename protocol — a deterministic stand-in for a torn write
// (process killed mid-write on a filesystem that reordered the rename).
// Test and fault-injection use only: Get must reject the result.
func (j *Journal) PutTruncated(e *Entry, keep int) error {
	data, err := Seal(e)
	if err != nil {
		j.writeErrs.Add(1)
		return err
	}
	if keep < 0 || keep > len(data) {
		keep = len(data) / 2
	}
	if err := os.WriteFile(j.path(e.Key), data[:keep], 0o644); err != nil {
		j.writeErrs.Add(1)
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

func (j *Journal) writeFile(key string, data []byte) error {
	tmp, err := os.CreateTemp(j.dir, ".put-*")
	if err != nil {
		j.writeErrs.Add(1)
		return fmt.Errorf("journal: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		j.writeErrs.Add(1)
		return fmt.Errorf("journal: writing %s: %w", key, err)
	}
	if j.sync.Load() {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmpName)
			j.writeErrs.Add(1)
			return fmt.Errorf("journal: syncing %s: %w", key, err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		j.writeErrs.Add(1)
		return fmt.Errorf("journal: closing %s: %w", key, err)
	}
	if err := os.Rename(tmpName, j.path(key)); err != nil {
		os.Remove(tmpName)
		j.writeErrs.Add(1)
		return fmt.Errorf("journal: publishing %s: %w", key, err)
	}
	if j.sync.Load() {
		// Persist the rename itself: without the directory fsync the entry
		// file can be durable while its name is not.
		if d, err := os.Open(j.dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	j.recordWrite(key, int64(len(data)))
	return nil
}

// SetBudget caps the journal directory at budget bytes of entry files.
// When a Put or Admit pushes the total over the cap, least-recently-used
// entries are unlinked until it fits again (Stats.Evictions counts them).
// Zero or negative disables the cap. The entry a Put or Admit just wrote
// is never its own victim, so a writer can always read back what it
// wrote. Because the journal is a cache, eviction is always safe: an
// evicted entry is re-simulated on the next miss.
//
// The accounting assumes this handle is the directory's only writer while
// a budget is active — exactly the sweep daemon's arrangement, where the
// LOCK-holding scheduler admits every result. Other writers' entries are
// seen only when a fresh handle's SetBudget seeds the accounting from the
// directory and enforces it at once. Readers are unaffected beyond extra
// misses.
func (j *Journal) SetBudget(budget int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.budget = budget
	if budget <= 0 {
		j.sizes, j.lastUse, j.total = nil, nil, 0
		return
	}
	if j.sizes == nil {
		j.scanLocked()
	}
	j.enforceLocked("")
}

// DiskUsage reports the tracked entry-file bytes while a budget is
// active (0 otherwise).
func (j *Journal) DiskUsage() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// touch bumps key's recency; a no-op unless a budget is active.
func (j *Journal) touch(key string) {
	j.mu.Lock()
	if j.lastUse != nil {
		if _, ok := j.sizes[key]; ok {
			j.useSeq++
			j.lastUse[key] = j.useSeq
		}
	}
	j.mu.Unlock()
}

// recordWrite folds a freshly published entry into the budget accounting
// and evicts over-budget entries (never the one just written).
func (j *Journal) recordWrite(key string, size int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.budget <= 0 || j.sizes == nil {
		return
	}
	j.total += size - j.sizes[key]
	j.sizes[key] = size
	j.useSeq++
	j.lastUse[key] = j.useSeq
	j.enforceLocked(key)
}

// scanLocked seeds the accounting from the directory: sizes from a walk,
// recency from file mtimes (older file = colder entry).
func (j *Journal) scanLocked() {
	j.sizes = make(map[string]int64)
	j.lastUse = make(map[string]int64)
	j.total = 0
	ents, err := os.ReadDir(j.dir)
	if err != nil {
		return
	}
	type aged struct {
		key string
		mt  int64
	}
	var found []aged
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasSuffix(name, ".cell") {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		key := strings.TrimSuffix(name, ".cell")
		j.sizes[key] = info.Size()
		j.total += info.Size()
		found = append(found, aged{key, info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(a, b int) bool { return found[a].mt < found[b].mt })
	for _, f := range found {
		j.useSeq++
		j.lastUse[f.key] = j.useSeq
	}
}

// enforceLocked unlinks least-recently-used entries until the total fits
// the budget. keep (the just-written key) is exempt, so a fresh result
// always survives long enough to be read back.
func (j *Journal) enforceLocked(keep string) {
	if j.budget <= 0 || j.total <= j.budget {
		return
	}
	type cand struct {
		key string
		use int64
	}
	var cands []cand
	for key, use := range j.lastUse {
		if key == keep {
			continue
		}
		cands = append(cands, cand{key, use})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].use < cands[b].use })
	for _, c := range cands {
		if j.total <= j.budget {
			return
		}
		if err := os.Remove(j.path(c.key)); err != nil && !os.IsNotExist(err) {
			continue
		}
		j.total -= j.sizes[c.key]
		delete(j.sizes, c.key)
		delete(j.lastUse, c.key)
		j.evictions.Add(1)
	}
}

// Verify decodes every entry in the directory through the full integrity
// check (header, length, SHA-256, key match) and returns how many passed.
// The first failing entry aborts the walk with a descriptive error. The
// sweep daemon runs this after a drain to assert the journal it leaves
// behind is wholly consistent; it does not touch the access counters.
func (j *Journal) Verify() (int, error) {
	ents, err := os.ReadDir(j.dir)
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	n := 0
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasSuffix(name, ".cell") {
			continue
		}
		key := strings.TrimSuffix(name, ".cell")
		data, err := os.ReadFile(filepath.Join(j.dir, name))
		if err != nil {
			return n, fmt.Errorf("journal: verifying %s: %w", key, err)
		}
		if _, err := decode(key, data); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Len reports how many well-named entries the journal directory holds
// (without verifying their integrity).
func (j *Journal) Len() (int, error) {
	ents, err := os.ReadDir(j.dir)
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	n := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".cell") {
			n++
		}
	}
	return n, nil
}
