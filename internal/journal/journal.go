// Package journal is the repository's one sealed-record log. Its JSON
// layer (Entry) persists completed sweep-cell results, so an interrupted
// sweep campaign resumes without re-simulating finished work
// (sim.Runner.WithJournal) and the sweep daemon admits uploaded results;
// its raw records are the disk half of the warm-state checkpoint store
// (internal/ckpt).
//
// # Keying
//
// Records are content-addressed: the caller derives a key from everything
// the record is a pure function of — for a cell, the trace bytes, the full
// core configuration, the windowing parameters and the engine version
// (core.EngineVersion) — via Key. Two cells with the same key are
// guaranteed bit-identical by the engine's determinism contract, which is
// what makes replaying an entry indistinguishable from re-running the
// cell. Anything that changes simulated Results must change the key
// (bumping core.EngineVersion invalidates every prior entry at once).
//
// # Durability
//
// Every record is one self-describing frame: the header line
// "<magic> <key> <payload sha256> <length>\n", then the payload; a key is
// 64 lowercase hex digits. The log is append-only record files (*.rec)
// holding records back to back, plus an in-memory index from key to
// (file, offset, length). Each handle appends only to a file it created
// itself, lazily on its first write and under a unique name, so processes
// sharing a directory never write the same file. Open reads each record's
// header and skips its payload, so it costs O(records), not O(bytes); a
// handle serves the records present at its Open plus its own writes.
// Writing a record costs one write and, with SetSync on, one fsync; a new
// file's directory entry is fsynced once, before its first record is
// acknowledged. A file rolls over at segmentMax bytes.
//
// Every read re-checks the record's header, length and SHA-256 against
// the asked key. A record that runs past the end of its file — a write
// torn by a crash — is not indexed and counts in Stats.Corrupt; no handle
// ever appends after it, because each handle's file is its own and a torn
// write retires it. A complete record that fails its checksum, key or
// decode check is a miss and an error for Verify, and hides none of the
// records after it. Either way the work simply re-runs. Files of earlier
// layouts (*.seg, *.cell and *.snap) are neither read nor deleted.
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
	"strconv"
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
	// and unparsable headers found by Open, and records a read finds
	// scrambled (each of those also counted as a miss).
	Corrupt uint64
	// WriteErrors counts failed writes. The log is a cache: a failed
	// write costs a future re-run, never correctness.
	WriteErrors uint64
	// Rejected counts uploads refused by Admit (bad header, checksum or
	// key mismatch): a byzantine or buggy uploader never lands an entry.
	Rejected uint64
	// Evictions counts records removed by the disk-budget policy
	// (SetBudget). An evicted record is a future miss, nothing more.
	Evictions uint64
}

const (
	// magic opens every record's header line.
	magic  = "lowvccrec1"
	recExt = ".rec"
	// segmentMax is the size past which a handle starts a new file.
	segmentMax = 64 << 20
	// maxHeader bounds a header line; its length has at most 19 digits.
	maxHeader = len(magic) + 1 + 64 + 1 + 64 + 1 + 19 + 1
)

// segment is one record file; size counts its bytes on disk.
type segment struct {
	name string
	size int64
}

// loc frames a key's latest record in its file; use is its recency
// stamp.
type loc struct {
	seg         *segment
	off, n, use int64
}

// Journal is a directory of append-only record files. Safe for concurrent
// use by multiple goroutines and, since each handle appends only to its
// own files, by multiple processes sharing the directory.
type Journal struct {
	dir  string
	sync atomic.Bool

	hits, misses, corrupt, writeErrs atomic.Uint64
	rejected, evictions              atomic.Uint64

	// mu guards everything below. cur is this handle's open file, the last
	// of segs: nil until the first write, and again after a torn write, a
	// rollover, a compaction or Close.
	mu     sync.Mutex
	cur    *os.File
	segs   []*segment // oldest first
	index  map[string]*loc
	useSeq int64
	total  int64 // bytes of every file in segs
	budget int64
	bad    error // first unindexable record Open found, or write this handle tore
}

// Open creates the journal directory if needed, indexes the records of
// every record file in it from their headers, and returns a handle.
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, index: make(map[string]*loc)}
	// File names start with their creation time, so name order is age
	// order and seeds recency: older file, earlier offset = colder.
	for _, ent := range ents {
		// Skip a file another handle compacted away since the listing.
		if err := j.scan(ent.Name()); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	return j, nil
}

// scan indexes a record file's records from their headers, stopping at a
// torn tail or at a header that frames nothing; other files it skips.
func (j *Journal) scan(name string) error {
	if !strings.HasSuffix(name, recExt) {
		return nil
	}
	f, err := os.Open(filepath.Join(j.dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	seg := &segment{name: name, size: info.Size()}
	j.segs = append(j.segs, seg)
	j.total += seg.size
	buf := make([]byte, maxHeader)
	for off := int64(0); off < seg.size; {
		// A header that will not read frames nothing, like a garbled one.
		n, _ := f.ReadAt(buf, off)
		key, _, _, size, err := frame(buf[:n], seg.size-off)
		if err != nil {
			j.corrupt.Add(1)
			if !errors.Is(err, errTorn) {
				j.bad = cmp.Or(j.bad, fmt.Errorf("journal: %s@%d: %w", name, off, err))
			}
			return nil // a torn tail ends the file; so does a header that frames nothing
		}
		j.useSeq++
		j.index[key] = &loc{seg: seg, off: off, n: size, use: j.useSeq}
		off += size
	}
	return nil
}

// SetSync selects fsync-on-write: with it on, every write returns only
// after the appended record is fsynced, so a published record survives
// power loss, not just process death. Off (the default) leaves the record
// in the page cache — crash-consistent, cheaper, and the right trade for
// the log's cache role; the sweep daemon turns it on because a service's
// durability promise is stronger than a CLI's.
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

var (
	errTorn      = errors.New("record runs past its end")
	errBadHeader = errors.New("header frames no record")
)

// isHex64 reports whether s is 64 lowercase hex digits, as a key and a
// checksum are.
func isHex64(s string) bool {
	_, err := hex.DecodeString(s)
	return err == nil && len(s) == 64 && strings.ToLower(s) == s
}

// seal frames payload as key's record.
func seal(key string, payload []byte) ([]byte, error) {
	if !isHex64(key) {
		return nil, fmt.Errorf("journal: key %q is not 64 lowercase hex digits", key)
	}
	rec := fmt.Appendf(make([]byte, 0, maxHeader+len(payload)), "%s %s %x %d\n", magic, key, sha256.Sum256(payload), len(payload))
	return append(rec, payload...), nil
}

// frame parses the header line buf starts with, of a record that has rest
// bytes (buf's included) before its file ends. It returns the key, the
// payload checksum, the header's length and the record's, or errTorn when
// the file ends first. Only seal's exact header line frames a record.
func frame(buf []byte, rest int64) (key, sum string, hdr, n int64, err error) {
	line, _, ok := bytes.Cut(buf[:min(len(buf), maxHeader)], []byte("\n"))
	if !ok && rest < int64(maxHeader) {
		return "", "", 0, 0, errTorn
	}
	f := strings.Split(string(line), " ")
	size := int64(-1)
	if len(f) == 4 && f[0] == magic && isHex64(f[1]) && isHex64(f[2]) {
		size, _ = strconv.ParseInt(f[3], 10, 64) // a bad length fails the check below
	}
	if !ok || size < 0 || strconv.FormatInt(size, 10) != f[3] {
		return "", "", 0, 0, errBadHeader
	}
	hdr = int64(len(line)) + 1
	if size > rest-hdr { // not hdr+size > rest: that sum can overflow
		err = errTorn
	}
	return f[1], f[2], hdr, hdr + size, err
}

// check verifies that rec is exactly one intact record of key's and
// returns its payload.
func check(key string, rec []byte) ([]byte, error) {
	k, sum, hdr, n, err := frame(rec, int64(len(rec)))
	if err == nil && (k != key || n != int64(len(rec))) {
		err = fmt.Errorf("a %d-byte record of %s", n, k)
	}
	if err == nil && fmt.Sprintf("%x", sha256.Sum256(rec[hdr:])) != sum {
		err = errors.New("checksum mismatch")
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %s: %d bytes are not its record: %w", key, len(rec), err)
	}
	return rec[hdr:], nil
}

// PutRecord appends payload as key's record to this handle's file; the
// latest record of a key wins. Errors are counted and returned; callers
// may ignore them — a lost record costs one re-run.
func (j *Journal) PutRecord(key string, payload []byte) error {
	rec, err := seal(key, payload)
	return j.write(key, rec, err, false)
}

// GetRecord returns key's payload, or (nil, false) when the key is absent
// or its record fails the integrity check (counted as corrupt).
func (j *Journal) GetRecord(key string) ([]byte, bool) {
	_, payload, ok := j.read(key, nil)
	return payload, ok
}

// Has reports whether the log indexes key without reading its record, and
// counts as a use for the budget's recency: a caller serving the record
// from a decoded copy of its own keeps it warm this way.
func (j *Journal) Has(key string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.touchLocked(key)
}

// touchLocked marks key used, reporting whether the log indexes it.
func (j *Journal) touchLocked(key string) bool {
	l := j.index[key]
	if l != nil {
		j.useSeq++
		l.use = j.useSeq
	}
	return l != nil
}

// Forget drops key from this handle's index, so a record its owner found
// unusable stops being served. Its bytes stay on disk until a compaction,
// and a handle opened later indexes them again.
func (j *Journal) Forget(key string) {
	j.mu.Lock()
	delete(j.index, key)
	j.mu.Unlock()
}

// read returns key's verified record and payload and marks the key used.
// decode, when non-nil, further checks the payload; a record failing any
// check is a miss counted as corrupt.
func (j *Journal) read(key string, decode func(payload []byte) error) (rec, payload []byte, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	indexed := j.touchLocked(key)
	rec, payload, err := j.checkLocked(key, decode)
	if err != nil {
		if indexed {
			j.corrupt.Add(1)
		}
		j.misses.Add(1)
		return nil, nil, false
	}
	j.hits.Add(1)
	return rec, payload, true
}

// checkLocked reads key's record from its file and checks it, and its
// payload with decode when that is non-nil.
func (j *Journal) checkLocked(key string, decode func(payload []byte) error) (rec, payload []byte, err error) {
	if rec, err = j.readLocked(j.index[key]); err == nil {
		if payload, err = check(key, rec); err == nil && decode != nil {
			err = decode(payload)
		}
	}
	return rec, payload, err
}

// readLocked reads one record's bytes from its file.
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

// Seal renders the sealed entry bytes: the record Put appends under e.Key
// and what Admit verifies, so a worker can upload a result without
// journaling it first.
func Seal(e *Entry) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding %s: %w", e.Key, err)
	}
	return seal(e.Key, payload)
}

// entryOf returns a payload check that decodes key's entry into *e.
func entryOf(key string, e **Entry) func(payload []byte) error {
	return func(payload []byte) error {
		*e = new(Entry)
		if err := json.Unmarshal(payload, *e); err != nil {
			return fmt.Errorf("journal: %s: %w", key, err)
		} else if (*e).Key != key || (*e).Result == nil {
			return fmt.Errorf("journal: entry %q (result %v) stored under key %s", (*e).Key, (*e).Result != nil, key)
		}
		return nil
	}
}

// Get returns the entry for key, or (nil, false) when it is absent or
// fails the integrity check. Corrupt entries count as misses: the caller
// re-runs the cell and its Put supersedes the bad record.
func (j *Journal) Get(key string) (*Entry, bool) {
	var e *Entry
	_, _, ok := j.read(key, entryOf(key, &e))
	return e, ok
}

// GetRaw returns the sealed entry bytes for key — header line plus
// payload, exactly as stored (Seal's output) — after running the same
// integrity check as Get.
func (j *Journal) GetRaw(key string) ([]byte, bool) {
	var e *Entry
	rec, _, ok := j.read(key, entryOf(key, &e))
	return rec, ok
}

// Admit verifies sealed entry bytes produced elsewhere (Seal or GetRaw,
// possibly on another machine) and publishes them under key. The full
// check runs before a single byte lands: header magic and key, payload
// length, SHA-256 content address, key match, decodability and a non-nil
// Result. Bytes from a buggy or byzantine uploader — a key other than 64
// lowercase hex digits included — are rejected with an error and counted
// in Stats.Rejected; nothing is written. This is the daemon half of
// result push-down: the scheduler believes the verified bytes, never the
// worker.
func (j *Journal) Admit(key string, data []byte) (*Entry, error) {
	var e *Entry
	payload, err := check(key, data)
	if err == nil {
		err = entryOf(key, &e)(payload)
	}
	if err != nil {
		j.rejected.Add(1)
		return nil, err
	}
	if err := j.write(key, data, nil, false); err != nil {
		return nil, err
	}
	return e, nil
}

// Put appends the entry's record to this handle's file; see PutRecord.
func (j *Journal) Put(e *Entry) error {
	rec, err := Seal(e)
	return j.write(e.Key, rec, err, false)
}

// PutTruncated appends the entry's record cut off after keep bytes and
// retires the file — a deterministic stand-in for a write torn by a
// crash. Test and fault-injection use only: the cut record is not indexed,
// Open counts it as a torn tail, and this handle's Verify reports it.
func (j *Journal) PutTruncated(e *Entry, keep int) error {
	rec, err := Seal(e)
	if keep < 0 || keep > len(rec) {
		keep = len(rec) / 2
	}
	return j.write(e.Key, rec[:keep], err, true)
}

// write appends one record (a cut one when torn), fsyncs it when sync is
// on, and indexes it. sealErr is the error sealing the record returned:
// it fails the write before anything lands.
func (j *Journal) write(key string, data []byte, sealErr error, torn bool) error {
	if sealErr != nil {
		j.writeErrs.Add(1)
		return sealErr
	}
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

// appendLocked writes data at the end of this handle's file and, on
// success, points l at it. It first starts a file when there is none or
// data would push the current one past segmentMax; a new file's name is
// made durable (with sync on) before any record in it can be acknowledged.
func (j *Journal) appendLocked(data []byte, l *loc) error {
	if j.cur != nil && j.segs[len(j.segs)-1].size+int64(len(data)) > segmentMax {
		if err := j.retire(); err != nil {
			return err
		}
	}
	if j.cur == nil {
		f, err := os.CreateTemp(j.dir, fmt.Sprintf("%016x-*%s", time.Now().UnixNano(), recExt))
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

// retire closes this handle's file, fsynced first when sync is on; the
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

// SetBudget caps the directory at budget bytes of record files. When a
// write pushes the total over the cap, the log compacts: the most recently
// used records, up to ⅞ of the budget, are copied coldest first into a
// fresh file (fsynced when sync is on), the old files are unlinked and
// every record left behind counts in Stats.Evictions. Zero or negative
// disables the cap. The record a write just appended is never a victim, so
// a writer can always read back what it wrote. Because the log is a cache,
// eviction is always safe: an evicted record is re-built on the next miss.
//
// The accounting assumes this handle is the directory's only writer while
// a budget is active — exactly the sweep daemon's arrangement, where the
// LOCK-holding scheduler admits every result, and a checkpoint store's.
// Other writers' files are seen only by a fresh handle, whose SetBudget
// enforces the cap over everything Open indexed. Readers are unaffected
// beyond extra misses.
func (j *Journal) SetBudget(budget int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.budget = budget
	j.enforceLocked("")
}

// DiskUsage reports the record-file bytes this handle accounts for while
// a budget is active (0 otherwise).
func (j *Journal) DiskUsage() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.budget <= 0 {
		return 0
	}
	return j.total
}

// enforceLocked compacts the log down to its most recently used records
// once the files outgrow the budget; keep (the just-written key) always
// survives. A failed copy leaves every old file in place.
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
		// A file that will not unlink only wastes space: every record in
		// it is either evicted or copied above, so a reopen that indexes it
		// again finds nothing the keying contract lets differ.
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
		var e *Entry
		if _, _, err := j.checkLocked(key, entryOf(key, &e)); err != nil {
			return n, fmt.Errorf("journal: verifying %s: %w", key, err)
		}
	}
	return len(j.index), nil
}

// Close retires this handle's open file, fsynced first when sync is on.
// The handle stays usable: a later write starts a new file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.retire()
}
