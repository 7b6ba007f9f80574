// Package ckpt is the warm-state checkpoint store: it captures the
// functional warm state of a core at fixed trace boundaries and restores it
// later in O(state size), so a sample window's start no longer costs a
// replay of its whole warm prefix. It is the SMARTS/SimPoint-style
// checkpointing half of the sharded-sweep methodology, built on the
// core-layer warm primitives (core.CaptureWarm / RestoreWarm /
// WarmReplayRange — see the core package's "Warm-state checkpoints"
// section for the contract).
//
// # Keying and sharing
//
// A snapshot is a pure function of (trace, warm-relevant configuration,
// boundary, engine version) — and of nothing else. In particular it is
// independent of Vcc, clock plan and IRAW mode, so one snapshot per
// (trace, boundary) serves every operating point of a sweep: the sweep's
// hundreds of (vcc, mode) cells share each boundary's snapshot read-only.
// WarmConfigKey hashes exactly the warm-relevant configuration — the
// hierarchy and predictor geometry plus the fault-map identity (whether
// maps install, and from which seed and sigma) — so irrelevant knobs can
// never split the share and relevant ones can never alias.
//
// # Storage
//
// Snapshots live in an in-process map (decoded, shared by pointer) and,
// when a directory is configured, on disk as one sealed file per snapshot:
// <SnapshotKey>.snap holds an integrity header (magic, payload SHA-256,
// length) followed by the snapshot's EncodeSnapshot bytes. A file is
// published by temp file + atomic rename and read back with one read and
// one SHA-256; a corrupt or truncated file is a counted miss, never data —
// the warm prefix simply replays live, and the rebuilt snapshot replaces
// the bad file. Under a byte budget (SetBudget) a decoded snapshot stays
// in memory only while its file is in the budget's accounting, so the
// budget bounds memory as well as disk. Sweep workers sharing a journal
// directory (in-process pools and sweepd -worker processes alike) share
// the store through the filesystem the same way they share the result
// journal. Files of the
// earlier layout (*.ckpt manifests and blob-* component files) are neither
// read nor deleted.
//
// # The store is a cache
//
// Nothing is ever allowed to fail a simulation because of checkpointing: a
// failed write costs a future re-replay, a failed read replays live, and a
// restore that rejects its snapshot (fault-map mismatch, shape drift) falls
// back to replay. The reference path — checkpoints off, every prefix
// replayed live — is selectable everywhere and bit-identical (fuzzed).
package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"lowvcc/internal/cache"
	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/journal"
	"lowvcc/internal/predictor"
	"lowvcc/internal/trace"
)

// Stats is a snapshot of the store's access counters.
type Stats struct {
	// Hits and Misses count snapshot lookups (memory or disk).
	Hits, Misses uint64
	// Corrupt counts snapshots rejected by the integrity check or by a
	// failed restore; each is also a miss.
	Corrupt uint64
	// Restores counts windows whose warm prefix was satisfied (fully or
	// partially) from a snapshot; Replays counts windows warmed by live
	// replay alone. Their ratio is the checkpoint hit rate.
	Restores, Replays uint64
	// Captures counts snapshots built and stored.
	Captures uint64
	// WriteErrors counts failed disk writes and failed captures. The store
	// is a cache: these cost future re-replays, never correctness.
	WriteErrors uint64
	// Evictions counts snapshots removed from disk by the byte-budget
	// policy (SetBudget). Every snapshot is independently restorable, so
	// an evicted one degrades to a live replay, never an error.
	Evictions uint64
}

// Store holds warm-state snapshots, in memory and optionally on disk. Safe
// for concurrent use by multiple goroutines and — thanks to atomic renames
// and keys that pin content — by multiple processes sharing the directory.
// A nil *Store is valid and means "checkpoints off": every operation is a
// no-op and WarmTo replays live.
type Store struct {
	dir string

	mu    sync.Mutex
	snaps map[string]*core.WarmState

	hits, misses, corrupt, restores, replays, captures, writeErrs atomic.Uint64
	evictions                                                     atomic.Uint64

	// fmu orders every rename and unlink of a snapshot file in this
	// process with the budget accounting. files (nil unless a budget is
	// active) holds each snapshot file's size and recency stamp, and total
	// is their sum.
	fmu    sync.Mutex
	budget int64
	total  int64
	files  map[string]snapFile
	useSeq int64
}

// snapFile is the budget's view of one snapshot file.
type snapFile struct{ size, use int64 }

// Open returns a store backed by dir; dir "" means memory-only.
func Open(dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
	}
	return &Store{dir: dir, snaps: make(map[string]*core.WarmState)}, nil
}

// Dir returns the store's directory ("" for memory-only).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Stats returns a snapshot of the access counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Corrupt:     s.corrupt.Load(),
		Restores:    s.restores.Load(),
		Replays:     s.replays.Load(),
		Captures:    s.captures.Load(),
		WriteErrors: s.writeErrs.Load(),
		Evictions:   s.evictions.Load(),
	}
}

// SnapshotKey derives the content address of the snapshot at an instruction
// boundary of a trace: the trace identity, the warm-relevant configuration
// (WarmConfigKey) and the engine version pin everything the snapshot is a
// function of.
func SnapshotKey(traceHash, warmCfgKey string, boundary int) string {
	return journal.Key("warm-ckpt", traceHash, warmCfgKey, strconv.Itoa(boundary), core.EngineVersion)
}

// warmCfg is the warm-relevant slice of a core configuration. Vcc, clock
// and mode knobs are deliberately absent: warm state is independent of them
// (the access-order contract), and including them would needlessly split
// the snapshot share across a sweep's operating points. The fault map is
// the one mode-adjacent input that does shape warm evolution (disabled
// lines change victim selection), so its identity — installed or not, and
// from which seed and sigma — is part of the key; the map itself is
// reinstalled deterministically by the core's reset, never serialized.
type warmCfg struct {
	Hierarchy cache.HierarchyConfig
	Predictor predictor.Config
	FaultMap  bool
	Seed      uint64
	Sigma     float64
}

// WarmConfigKey hashes the warm-relevant part of cfg.
func WarmConfigKey(cfg core.Config) string {
	w := warmCfg{Hierarchy: cfg.Hierarchy, Predictor: cfg.Predictor}
	if cfg.Mode == circuit.ModeFaultyBits ||
		(cfg.Mode == circuit.ModeIRAW && cfg.CombineFaultyBits) {
		w.FaultMap = true
		w.Seed = cfg.Seed
		w.Sigma = cfg.FaultySigma
	}
	js, err := json.Marshal(&w)
	if err != nil {
		// Config structs are plain scalars; Marshal cannot fail on them.
		panic(fmt.Sprintf("ckpt: encoding warm config: %v", err))
	}
	return journal.Key("warm-cfg", string(js))
}

// Get returns the snapshot for key, or (nil, false) when absent or failing
// the integrity check. The returned snapshot is shared: callers must treat
// it as read-only (core.RestoreWarm does).
func (s *Store) Get(key string) (*core.WarmState, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	ws, ok := s.snaps[key]
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
		s.touchSnap(key)
		return ws, true
	}
	if s.dir == "" {
		s.misses.Add(1)
		return nil, false
	}
	ws, err := s.load(key)
	if err != nil {
		if !os.IsNotExist(err) {
			// Corrupt, not absent: forget the file so has() stops
			// reporting a snapshot here and the next WarmTo re-publishes
			// it.
			s.corrupt.Add(1)
			s.forget(key)
		}
		s.misses.Add(1)
		return nil, false
	}
	s.fmu.Lock()
	s.mu.Lock()
	// A concurrent loader may have won; keep the first pointer so every
	// core in the process shares one decoded copy. Under a budget, a file
	// outside the accounting (evicted meanwhile, or written by another
	// process) serves this call without staying resident.
	if prior, ok := s.snaps[key]; ok {
		ws = prior
	} else if _, accounted := s.files[key]; accounted || s.files == nil {
		s.snaps[key] = ws
	}
	s.mu.Unlock()
	s.fmu.Unlock()
	s.hits.Add(1)
	s.touchSnap(key)
	return ws, true
}

// Put stores the snapshot under key; the caller must not mutate it
// afterwards. Disk errors are counted and swallowed: the in-memory copy is
// already serving this process, and other processes re-replay.
func (s *Store) Put(key string, ws *core.WarmState) {
	if s == nil {
		return
	}
	s.mu.Lock()
	_, dup := s.snaps[key]
	if !dup {
		s.snaps[key] = ws
	}
	s.mu.Unlock()
	s.captures.Add(1)
	if s.dir == "" || dup {
		return
	}
	if err := s.flush(key, ws); err != nil {
		s.writeErrs.Add(1)
	}
}

// has reports whether a snapshot exists (in memory or as a file) without
// decoding it.
func (s *Store) has(key string) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	_, ok := s.snaps[key]
	s.mu.Unlock()
	if ok || s.dir == "" {
		return ok
	}
	_, err := os.Stat(s.path(key))
	return err == nil
}

// drop forgets a snapshot that failed to restore, so the next probe
// rebuilds it instead of re-hitting the bad copy.
func (s *Store) drop(key string) {
	s.mu.Lock()
	delete(s.snaps, key)
	s.mu.Unlock()
	if s.dir != "" {
		s.forget(key)
	}
}

// WarmTo brings a freshly reset core to warm boundary n of tr: it restores
// the deepest usable snapshot at a multiple of interval, replays the
// residual tail through the functional warm path, and captures any
// boundary snapshots still missing along the way. The resulting core state
// is observationally identical to a live WarmReplay(tr, n) — checkpointing
// only moves work, never results. A nil store (or non-positive interval)
// degrades to exactly that live replay.
//
// traceHash and warmCfgKey identify the snapshot family (see SnapshotKey);
// interval is the boundary spacing in instructions — the sim runner passes
// its window size, so full-history warm prefixes land exactly on
// boundaries and steady-state windows restore without any replay.
func (s *Store) WarmTo(c *core.Core, traceHash, warmCfgKey string, interval int, tr *trace.Trace, n int) error {
	if s == nil || interval <= 0 {
		return c.WarmReplay(tr, n)
	}
	pos := 0
	for b := n / interval * interval; b >= interval; b -= interval {
		key := SnapshotKey(traceHash, warmCfgKey, b)
		ws, ok := s.Get(key)
		if !ok {
			continue
		}
		if err := c.RestoreWarm(ws); err != nil {
			// Keyed identically yet unusable: a scrambled or stale copy.
			// Forget it and probe shallower; the replay below rebuilds it.
			// The restore may have failed part-way, so reset the core
			// first: the next probe and the replay need a fresh one.
			s.drop(key)
			s.corrupt.Add(1)
			if err := c.Reset(); err != nil {
				return err
			}
			continue
		}
		pos = b
		break
	}
	if pos > 0 {
		s.restores.Add(1)
	} else if n > 0 {
		s.replays.Add(1)
	}
	for pos < n {
		next := (pos/interval + 1) * interval
		if next > n {
			next = n
		}
		if err := c.WarmReplayRange(tr, pos, next); err != nil {
			return err
		}
		pos = next
		if pos%interval == 0 {
			key := SnapshotKey(traceHash, warmCfgKey, pos)
			if !s.has(key) {
				ws, err := c.CaptureWarm()
				if err != nil {
					// Capture refused (timed residue?) — checkpointing is
					// best-effort, the warm state itself is fine: keep
					// replaying live.
					s.writeErrs.Add(1)
					continue
				}
				s.Put(key, ws)
			}
		}
	}
	return nil
}

// ---- disk format ----

const (
	headerMagic = "lowvccsnap1"
	snapExt     = ".snap"
)

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+snapExt) }

// header renders a snapshot file's integrity line: the magic, the
// payload's SHA-256 and its length.
func header(payload []byte) string {
	return fmt.Sprintf("%s %x %d\n", headerMagic, sha256.Sum256(payload), len(payload))
}

// seal frames a payload as a snapshot file: its header line, then the
// payload.
func seal(payload []byte) []byte { return append([]byte(header(payload)), payload...) }

// unseal returns the payload of a snapshot file. It accepts exactly what
// seal produces, so a torn write, a flipped byte or a reframed header is
// rejected.
func unseal(data []byte) ([]byte, error) {
	line, payload, ok := bytes.Cut(data, []byte("\n"))
	if !ok || string(line)+"\n" != header(payload) {
		return nil, fmt.Errorf("ckpt: header does not match the %d-byte payload", len(payload))
	}
	return payload, nil
}

// flush writes the sealed snapshot to a temp file, then publishes it by
// rename and accounts for it under fmu.
func (s *Store) flush(key string, ws *core.WarmState) error {
	data := seal(EncodeSnapshot(ws))
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if _, err = tmp.Write(data); err != nil {
		tmp.Close()
	} else {
		err = tmp.Close()
	}
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if err == nil {
		err = os.Rename(tmp.Name(), s.path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		s.unresideLocked(key)
		return fmt.Errorf("ckpt: writing %s: %w", key, err)
	}
	if s.files != nil {
		s.total += int64(len(data)) - s.files[key].size
		s.useSeq++
		s.files[key] = snapFile{int64(len(data)), s.useSeq}
		s.enforceLocked(key)
	}
	return nil
}

// load reads and verifies the snapshot file for key. os.IsNotExist errors
// mean a plain miss; anything else is corruption.
func (s *Store) load(key string) (*core.WarmState, error) {
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, err
	}
	payload, err := unseal(raw)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(payload)
}

// ---- disk budget ----

// SetBudget caps the store's snapshot files at budget bytes. When a flush
// pushes the total over the cap, snapshot files are evicted
// least-recently-used first, sparing the one just written. Zero or
// negative disables the cap. Eviction can never break a restorable
// boundary chain: every snapshot restores independently and WarmTo
// probes shallower (ultimately live replay) on a miss, so the worst case
// is re-replay work, never a wrong result. A nil *Store ignores the call.
// While a budget is active, a decoded snapshot leaves memory when its file
// leaves the accounting.
//
// Enabling a budget seeds the accounting from a directory listing: each
// file's size, with recency ranked by modification time. Accounting
// assumes this process is the directory's only writer while a budget is
// active (the sweep daemon's arrangement); other readers just see extra
// misses.
func (s *Store) SetBudget(budget int64) {
	if s == nil || s.dir == "" {
		return
	}
	s.fmu.Lock()
	defer s.fmu.Unlock()
	s.budget = budget
	if budget <= 0 {
		s.files, s.total = nil, 0
		return
	}
	if s.files == nil {
		s.scanLocked()
	}
	s.enforceLocked("")
}

// DiskUsage reports the bytes of the snapshot files on disk while a budget
// is active (0 otherwise).
func (s *Store) DiskUsage() int64 {
	if s == nil {
		return 0
	}
	s.fmu.Lock()
	defer s.fmu.Unlock()
	return s.total
}

// touchSnap bumps a snapshot's recency; a no-op unless a budget is active.
func (s *Store) touchSnap(key string) {
	s.fmu.Lock()
	if f, ok := s.files[key]; ok {
		s.useSeq++
		s.files[key] = snapFile{f.size, s.useSeq}
	}
	s.fmu.Unlock()
}

// scanLocked seeds the accounting from the directory listing: every
// snapshot file's size, recency in modification-time order (name breaks
// ties).
func (s *Store) scanLocked() {
	s.files, s.total = make(map[string]snapFile), 0
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	type aged struct {
		key  string
		size int64
		mt   int64
	}
	var found []aged
	for _, ent := range ents {
		key, ok := strings.CutSuffix(ent.Name(), snapExt)
		info, err := ent.Info()
		if !ok || err != nil || !info.Mode().IsRegular() {
			continue
		}
		found = append(found, aged{key, info.Size(), info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(a, b int) bool {
		if found[a].mt != found[b].mt {
			return found[a].mt < found[b].mt
		}
		return found[a].key < found[b].key
	})
	for _, f := range found {
		s.useSeq++
		s.files[f.key] = snapFile{f.size, s.useSeq}
		s.total += f.size
	}
}

// enforceLocked evicts least-recently-used snapshot files (sparing keep,
// the one just flushed) until the total fits the budget.
func (s *Store) enforceLocked(keep string) {
	if s.files == nil || s.total <= s.budget {
		return
	}
	keys := make([]string, 0, len(s.files))
	for key := range s.files {
		if key != keep {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(a, b int) bool { return s.files[keys[a]].use < s.files[keys[b]].use })
	for _, key := range keys {
		if s.total <= s.budget {
			return
		}
		if s.forgetLocked(key) {
			s.evictions.Add(1)
		}
	}
}

// forget removes key's snapshot file; see forgetLocked.
func (s *Store) forget(key string) {
	s.fmu.Lock()
	s.forgetLocked(key)
	s.fmu.Unlock()
}

// forgetLocked unlinks key's snapshot file and drops it from the
// accounting, and under a budget from memory, reporting whether the file
// is gone. It is the one way a snapshot leaves the disk — LRU eviction, a
// corrupt file Get rejected, a snapshot WarmTo could not restore — so
// DiskUsage keeps equalling the bytes on disk.
func (s *Store) forgetLocked(key string) bool {
	if err := os.Remove(s.path(key)); err != nil && !os.IsNotExist(err) {
		return false
	}
	s.total -= s.files[key].size
	delete(s.files, key)
	s.unresideLocked(key)
	return true
}

// unresideLocked drops key's decoded snapshot from memory when a budget is
// active and key's file is not in its accounting. Callers hold fmu, which
// orders before mu.
func (s *Store) unresideLocked(key string) {
	if _, accounted := s.files[key]; s.files == nil || accounted {
		return
	}
	s.mu.Lock()
	delete(s.snaps, key)
	s.mu.Unlock()
}
