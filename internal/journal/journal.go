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
// The journal is a log: append-only segment files (*.seg) holding sealed
// entries (Seal's bytes) back to back, plus an in-memory index from key to
// (segment, offset, length). Each handle appends only to a segment it
// created itself, lazily on its first write and under a unique name, so
// processes sharing a directory never write the same file. Open reads
// every existing segment once to rebuild the index; the index holds
// offsets, never entry bytes. Admitting an entry costs one write and, with
// SetSync on, one fsync — no inode, rename or directory fsync per entry; a
// new segment's directory entry is fsynced once, before its first record
// is acknowledged. A segment rolls over at segmentMax bytes.
//
// Every record carries a header with its payload's SHA-256 and length,
// and Get re-checks both, plus the key, on every read. A record that runs
// past the end of its segment — a write torn by a crash — is not indexed
// and counts in Stats.Corrupt; no handle ever appends after it, because
// each handle's segment is its own and a torn write retires it. A complete
// record that fails its checksum, key or decode check is a miss for Get
// and an error for Verify, and hides none of the records after it. Either
// way the cell simply re-runs. Per-key *.cell files from the journal's
// earlier layout are neither read nor deleted.
//
// Entries encode as JSON. Go's encoder emits the shortest float64
// representation that round-trips exactly and core.Result is all exported
// scalar fields, so a decoded Result is bit-identical to the recorded one
// (asserted by TestEntryRoundTrip).
package journal

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	// Corrupt counts records rejected by the integrity check: torn tails
	// found by Open, and records Get finds scrambled (each of those also
	// counted as a miss).
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

const (
	// headerMagic opens the integrity line preceding each JSON payload.
	headerMagic = "lowvccjnl1"
	// keyPrefix is how every sealed payload begins; the key follows it.
	keyPrefix = `{"Key":"`
	segExt    = ".seg"
	// segmentMax is the size past which a handle starts a new segment.
	segmentMax = 64 << 20
)

// segment is one log file; size counts its bytes on disk.
type segment struct {
	name string
	size int64
}

// loc frames a key's latest record in its segment; use is its recency
// stamp.
type loc struct {
	seg         *segment
	off, n, use int64
}

// Journal is a directory of append-only segments. Safe for concurrent use
// by multiple goroutines and, since each handle appends only to its own
// segments, by multiple processes sharing the directory.
type Journal struct {
	dir  string
	sync atomic.Bool

	hits, misses, corrupt, writeErrs atomic.Uint64
	rejected, evictions              atomic.Uint64

	// mu guards everything below. cur is this handle's open segment, the
	// last of segs: nil until the first write, and again after a torn
	// write, a rollover or a compaction.
	mu     sync.Mutex
	cur    *os.File
	segs   []*segment // oldest first
	index  map[string]*loc
	useSeq int64
	total  int64 // bytes of every segment in segs
	budget int64
	bad    error // first unindexable record Open found, or write this handle tore
}

// Open creates the journal directory if needed, reads every segment in it
// once to index its records, and returns a handle.
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, index: make(map[string]*loc)}
	// Segment names start with their creation time, so name order is age
	// order and seeds recency: older segment, earlier offset = colder.
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), segExt) {
			if err := j.scan(ent.Name()); err != nil {
				return nil, err
			}
		}
	}
	return j, nil
}

// scan indexes one segment's records, stopping at a torn tail or at a
// header that frames nothing.
func (j *Journal) scan(name string) error {
	// A segment compacted away by another handle since the listing reads
	// as empty.
	data, err := os.ReadFile(filepath.Join(j.dir, name))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("journal: %w", err)
	}
	seg := &segment{name: name, size: int64(len(data))}
	j.segs = append(j.segs, seg)
	j.total += seg.size
	for off := 0; off < len(data); {
		_, n, err := frame(data[off:])
		key, ok := recordKey(data[off : off+n])
		if err != nil || !ok {
			j.corrupt.Add(1)
			if !errors.Is(err, errTorn) {
				j.bad = cmp.Or(j.bad, fmt.Errorf("journal: %s@%d: record without a frame or key", name, off))
			}
			if err != nil {
				return nil // a torn tail ends the segment; so does a header that frames nothing
			}
		} else {
			j.useSeq++
			j.index[key] = &loc{seg: seg, off: int64(off), n: int64(n), use: j.useSeq}
		}
		off += n
	}
	return nil
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// SetSync selects fsync-on-Put: with it on, Put and Admit return only
// after the appended record is fsynced, so a published entry survives
// power loss, not just process death. Off (the default) leaves the record
// in the page cache — crash-consistent, cheaper, and the right trade for
// the journal's cache role; the sweep daemon turns it on because a
// service's durability promise is stronger than a CLI's.
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
// collide. The result is a hex SHA-256.
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

// Seal renders the sealed entry bytes: one header line with the
// payload's SHA-256 and length, then the payload. They are exactly what Put
// appends under e.Key and what Admit verifies, so a worker can upload a
// result without journaling it first.
func Seal(e *Entry) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding %s: %w", e.Key, err)
	}
	header := fmt.Sprintf("%s %x %d\n", headerMagic, sha256.Sum256(payload), len(payload))
	rec := append([]byte(header), payload...)
	if k, ok := recordKey(rec); !ok || k != e.Key {
		return nil, fmt.Errorf("journal: key %q does not encode verbatim", e.Key)
	}
	return rec, nil
}

var errTorn = errors.New("record runs past its end")
var errTrailing = errors.New("bytes follow the record")

// frame parses the header line data starts with and returns the payload's
// checksum and the whole record's length, or errTorn when data ends first.
func frame(data []byte) (sum string, size int, err error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return "", 0, errTorn
	}
	// Only Seal's exact header line frames a record.
	line := string(data[:nl])
	if _, err := fmt.Sscanf(line, headerMagic+" %s %d", &sum, &size); err != nil || size < 0 || line != fmt.Sprintf("%s %s %d", headerMagic, sum, size) {
		return "", 0, errors.New("bad header")
	}
	if size > len(data)-nl-1 {
		return "", 0, errTorn
	}
	return sum, nl + 1 + size, nil
}

// recordKey reads the key a sealed record's payload starts with: what Open
// indexes the record under, and what decode insists equals the asked key.
func recordKey(rec []byte) (string, bool) {
	_, payload, _ := bytes.Cut(rec, []byte("\n"))
	rest, ok := bytes.CutPrefix(payload, []byte(keyPrefix))
	key, _, found := bytes.Cut(rest, []byte(`"`))
	return string(key), ok && found
}

// Get returns the entry for key, or (nil, false) when it is absent or
// fails the integrity check. Corrupt entries count as misses: the caller
// re-runs the cell and its Put supersedes the bad record.
func (j *Journal) Get(key string) (*Entry, bool) {
	e, _, ok := j.lookup(key)
	return e, ok
}

// GetRaw returns the sealed entry bytes for key — header line plus
// payload, exactly as stored (Seal's output) — after running the same
// integrity check as Get.
func (j *Journal) GetRaw(key string) ([]byte, bool) {
	_, data, ok := j.lookup(key)
	return data, ok
}

func (j *Journal) lookup(key string) (e *Entry, data []byte, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	l := j.index[key]
	data, err := j.readLocked(l)
	if err == nil {
		j.useSeq++
		l.use = j.useSeq
		if e, err = decode(key, data); err != nil {
			j.corrupt.Add(1)
		}
	}
	if err != nil {
		j.misses.Add(1)
		return nil, nil, false
	}
	j.hits.Add(1)
	return e, data, true
}

// readLocked reads one record's bytes from its segment.
func (j *Journal) readLocked(l *loc) ([]byte, error) {
	if l == nil {
		return nil, os.ErrNotExist
	}
	f, err := os.Open(filepath.Join(j.dir, l.seg.name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data := make([]byte, l.n)
	_, err = f.ReadAt(data, l.off)
	return data, err
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
	if err := j.write(key, data, false); err != nil {
		return nil, err
	}
	return e, nil
}

func decode(key string, data []byte) (*Entry, error) {
	sum, size, err := frame(data)
	if err != nil || size != len(data) {
		return nil, fmt.Errorf("journal: %s: %d bytes are not one record: %w", key, len(data), cmp.Or(err, errTrailing))
	}
	payload := data[bytes.IndexByte(data, '\n')+1:]
	if got := sha256.Sum256(payload); hex.EncodeToString(got[:]) != sum {
		return nil, fmt.Errorf("journal: %s: checksum mismatch", key)
	}
	var e Entry
	if err := json.Unmarshal(payload, &e); err != nil {
		return nil, fmt.Errorf("journal: %s: %w", key, err)
	}
	// Both the key Open indexes by and the one JSON decodes must match.
	if k, _ := recordKey(data); k != key || e.Key != key {
		return nil, fmt.Errorf("journal: entry %q (indexed as %q) stored under key %s", e.Key, k, key)
	}
	if e.Result == nil {
		return nil, fmt.Errorf("journal: %s: entry without result", key)
	}
	return &e, nil
}

// Put appends the entry to this handle's segment. Concurrent writers of one
// key carry identical content by the keying contract, and the latest
// record wins. Errors are counted and returned; callers may ignore them — a
// lost entry costs one re-simulation.
func (j *Journal) Put(e *Entry) error {
	data, err := Seal(e)
	if err != nil {
		j.writeErrs.Add(1)
		return err
	}
	return j.write(e.Key, data, false)
}

// PutTruncated appends the entry's record cut off after keep bytes and
// retires the segment — a deterministic stand-in for a write torn by a
// crash. Test and fault-injection use only: the cut record is not indexed,
// Open counts it as a torn tail, and this handle's Verify reports it.
func (j *Journal) PutTruncated(e *Entry, keep int) error {
	data, err := Seal(e)
	if err != nil {
		j.writeErrs.Add(1)
		return err
	}
	if keep < 0 || keep > len(data) {
		keep = len(data) / 2
	}
	return j.write(e.Key, data[:keep], true)
}

// write appends one record (a cut one when torn), fsyncs it when sync is
// on, and indexes it.
func (j *Journal) write(key string, data []byte, torn bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	l := new(loc)
	err := j.appendLocked(data, l)
	if err == nil && j.sync.Load() {
		err = j.cur.Sync()
	}
	if err != nil {
		j.retire()
		j.writeErrs.Add(1)
		return fmt.Errorf("journal: writing %s: %w", key, err)
	}
	if torn {
		j.bad = cmp.Or(j.bad, fmt.Errorf("journal: %s: torn write of %d bytes", key, l.n))
		return j.retire()
	}
	j.index[key] = l
	j.enforceLocked(key)
	return nil
}

// appendLocked writes data at the end of this handle's segment and, on
// success, points l at it. It first starts a segment when there is none or
// data would push the current one past segmentMax; a new segment's name is
// made durable (with sync on) before any record in it can be acknowledged.
func (j *Journal) appendLocked(data []byte, l *loc) error {
	if j.cur != nil && j.segs[len(j.segs)-1].size+int64(len(data)) > segmentMax {
		if err := j.retire(); err != nil {
			return err
		}
	}
	if j.cur == nil {
		f, err := os.CreateTemp(j.dir, fmt.Sprintf("%016x-*%s", time.Now().UnixNano(), segExt))
		if err != nil {
			return err
		}
		j.cur = f
		j.segs = append(j.segs, &segment{name: filepath.Base(f.Name())})
		if j.sync.Load() {
			d, err := os.Open(j.dir)
			if err == nil {
				err = errors.Join(d.Sync(), d.Close())
			}
			if err != nil {
				return err
			}
		}
	}
	seg := j.segs[len(j.segs)-1]
	n, err := j.cur.WriteAt(data, seg.size)
	seg.size += int64(n)
	j.total += int64(n)
	if err == nil {
		j.useSeq++
		*l = loc{seg: seg, off: seg.size - int64(n), n: int64(n), use: j.useSeq}
	}
	return err
}

// retire closes this handle's segment, fsynced first when sync is on; the
// next write starts a new one.
func (j *Journal) retire() (err error) {
	if j.cur != nil {
		if j.sync.Load() {
			err = j.cur.Sync()
		}
		err = errors.Join(err, j.cur.Close())
		j.cur = nil
	}
	return err
}

// SetBudget caps the journal directory at budget bytes of segments. When
// a Put or Admit pushes the total over the cap, the journal compacts: the
// most recently used entries, up to ⅞ of the budget, are copied coldest
// first into fresh segments (fsynced when sync is on), the old segments
// are unlinked and every entry left behind counts in Stats.Evictions.
// Zero or negative disables the cap. The entry a Put or Admit just wrote
// is never a victim, so a writer can always read back what it wrote.
// Because the journal is a cache, eviction is always safe: an evicted
// entry is re-simulated on the next miss.
//
// The accounting assumes this handle is the directory's only writer while
// a budget is active — exactly the sweep daemon's arrangement, where the
// LOCK-holding scheduler admits every result. Other writers' segments are
// seen only by a fresh handle, whose SetBudget enforces the cap over
// everything Open indexed. Readers are unaffected beyond extra misses.
func (j *Journal) SetBudget(budget int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.budget = budget
	j.enforceLocked("")
}

// DiskUsage reports the segment bytes this handle accounts for while a
// budget is active (0 otherwise).
func (j *Journal) DiskUsage() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.budget <= 0 {
		return 0
	}
	return j.total
}

// enforceLocked compacts the journal down to its most recently used
// entries once the segments outgrow the budget; keep (the just-written
// key) always survives. A failed copy leaves every old segment in place.
func (j *Journal) enforceLocked(keep string) {
	if j.budget <= 0 || j.total <= j.budget {
		return
	}
	keys := slices.Collect(maps.Keys(j.index))
	sort.Slice(keys, func(a, b int) bool { return j.index[keys[a]].use > j.index[keys[b]].use })
	kept, size := 0, int64(0)
	for ; kept < len(keys); kept++ {
		n := j.index[keys[kept]].n
		if keys[kept] != keep && size+n > j.budget-j.budget/8 {
			break
		}
		size += n
	}
	err := j.retire()
	old := len(j.segs)
	for i := kept - 1; i >= 0 && err == nil; i-- {
		var data []byte
		if data, err = j.readLocked(j.index[keys[i]]); err == nil {
			err = j.appendLocked(data, j.index[keys[i]])
		}
	}
	if err = errors.Join(err, j.retire()); err != nil {
		j.writeErrs.Add(1)
		return
	}
	for _, seg := range j.segs[:old] {
		// A segment that will not unlink only wastes space: every record
		// in it is either evicted or copied above, so a reopen that indexes
		// it again finds nothing the keying contract lets differ.
		_ = os.Remove(filepath.Join(j.dir, seg.name))
		j.total -= seg.size
	}
	j.segs = j.segs[old:]
	for _, k := range keys[kept:] {
		delete(j.index, k)
	}
	j.evictions.Add(uint64(len(keys) - kept))
	j.bad = nil
}

// Keys returns every indexed key, sorted: the order Verify walks them in,
// and how callers outside the package read the journal entry by entry.
func (j *Journal) Keys() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return slices.Sorted(maps.Keys(j.index))
}

// Verify decodes every indexed entry through the full integrity check
// (header, length, SHA-256, key match) and returns how many passed. The
// first failing entry aborts the walk with a descriptive error, as does a
// complete record Open could not index or a write this handle tore. A
// torn tail found by Open does not: it is what a crash leaves. The sweep
// daemon runs this after a drain to assert the journal it leaves behind
// is wholly consistent; it does not touch the access counters.
func (j *Journal) Verify() (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.bad != nil {
		return 0, j.bad
	}
	for n, key := range slices.Sorted(maps.Keys(j.index)) {
		data, err := j.readLocked(j.index[key])
		if err == nil {
			_, err = decode(key, data)
		}
		if err != nil {
			return n, fmt.Errorf("journal: verifying %s: %w", key, err)
		}
	}
	return len(j.index), nil
}

// Len reports how many keys the journal indexes (without verifying their
// records' integrity).
func (j *Journal) Len() (int, error) {
	return len(j.Keys()), nil
}
