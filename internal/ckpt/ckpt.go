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
// when a directory is configured, on disk as records of a sealed-record
// log (internal/journal): one record per snapshot, keyed by its
// SnapshotKey, whose payload is the snapshot's EncodeSnapshot bytes. The
// log owns the frame (header, SHA-256, length), the index, the byte budget
// and its compaction; this package owns only the snapshot encoding. A
// corrupt or truncated record is a counted miss, never data — the warm
// prefix simply replays live, and the rebuilt snapshot supersedes the bad
// record. Under a byte budget (SetBudget) the log compacts to ⅞ of the
// budget, most recently used records first, and a decoded snapshot stays
// in memory only while the log indexes its key, so the budget bounds
// memory as well as disk. A store serves the records present when it was
// opened plus its own writes, so sweep workers sharing a journal
// directory (in-process pools and sweepd -worker processes alike) share
// snapshots through the filesystem the same way they share the result
// journal. Files of earlier layouts (*.snap files, *.ckpt manifests and
// blob-* component files) are neither read nor deleted.
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
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
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
	// Corrupt counts snapshots rejected by the integrity check (the log's
	// or the decoder's) or by a failed restore; each found by a lookup is
	// also a miss.
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
// for concurrent use by multiple goroutines and — because the log's
// handles never write one another's files and keys pin content — by
// multiple processes sharing the directory. A nil *Store is valid and
// means "checkpoints off": every operation is a no-op and WarmTo replays
// live.
type Store struct {
	log *journal.Journal // nil for a memory-only store

	// mu guards snaps; under a budget it orders an insert into snaps after
	// the log's compaction (see unreside).
	mu       sync.Mutex
	snaps    map[string]*core.WarmState
	budgeted atomic.Bool

	hits, misses, corrupt, restores, replays, captures, writeErrs atomic.Uint64
}

// Open returns a store backed by a log in dir; dir "" means memory-only.
// When dir's log will not open, Open returns the error together with a
// memory-only store, which a caller may use: the store is a cache.
func Open(dir string) (*Store, error) {
	s := &Store{snaps: make(map[string]*core.WarmState)}
	var err error
	if dir != "" {
		s.log, err = journal.Open(dir)
	}
	return s, err
}

// Close closes the store's log: its open record file is retired. A nil or
// memory-only store has nothing to close.
func (s *Store) Close() error {
	if s == nil || s.log == nil {
		return nil
	}
	return s.log.Close()
}

// Stats returns a snapshot of the access counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	st := Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Corrupt:     s.corrupt.Load(),
		Restores:    s.restores.Load(),
		Replays:     s.replays.Load(),
		Captures:    s.captures.Load(),
		WriteErrors: s.writeErrs.Load(),
	}
	if s.log != nil {
		ls := s.log.Stats()
		st.Corrupt += ls.Corrupt
		st.Evictions = ls.Evictions
	}
	return st
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
	if s.log != nil && ok {
		s.log.Has(key) // a use, for the budget's recency
	} else if s.log != nil {
		ws, ok = s.load(key)
	}
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return ws, true
}

// load reads and decodes key's record. A corrupt one is forgotten, so has()
// stops reporting a snapshot here and the next WarmTo re-publishes it.
func (s *Store) load(key string) (*core.WarmState, bool) {
	payload, ok := s.log.GetRecord(key)
	ws, err := decodeSnapshot(payload)
	if !ok || err != nil {
		if ok {
			s.corrupt.Add(1)
		}
		s.log.Forget(key)
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// A concurrent loader may have won; keep the first pointer so every
	// core in the process shares one decoded copy. Under a budget, a
	// record the log no longer indexes (evicted meanwhile) serves this
	// call without staying resident.
	if prior, ok := s.snaps[key]; ok {
		return prior, true
	}
	if !s.budgeted.Load() || s.log.Has(key) {
		s.snaps[key] = ws
	}
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
	if s.log == nil || dup {
		return
	}
	if err := s.log.PutRecord(key, EncodeSnapshot(ws)); err != nil {
		s.writeErrs.Add(1)
	}
	s.unreside()
}

// has reports whether a snapshot exists (in memory or in the log) without
// decoding it.
func (s *Store) has(key string) bool {
	s.mu.Lock()
	_, ok := s.snaps[key]
	s.mu.Unlock()
	return ok || (s.log != nil && s.log.Has(key))
}

// drop forgets a snapshot that failed to restore, so the next probe
// rebuilds it instead of re-hitting the bad copy.
func (s *Store) drop(key string) {
	s.mu.Lock()
	delete(s.snaps, key)
	s.mu.Unlock()
	if s.log != nil {
		s.log.Forget(key)
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
			// first: Reset clears every block in place back to the state
			// core.New builds, which the next probe and the replay need.
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

// SetBudget caps the store's log at budget bytes, compacting it as
// journal.Journal.SetBudget does; zero or negative disables the cap, and a
// nil or memory-only store ignores the call. Every snapshot restores
// independently and WarmTo probes shallower on a miss, so eviction costs
// re-replay work, never a wrong result. While a budget is active, a
// decoded snapshot leaves memory when its record leaves the log's index.
func (s *Store) SetBudget(budget int64) {
	if s == nil || s.log == nil {
		return
	}
	s.log.SetBudget(budget)
	s.budgeted.Store(budget > 0)
	s.unreside()
}

// DiskUsage reports the bytes of the store's record files while a budget
// is active (0 otherwise).
func (s *Store) DiskUsage() int64 {
	if s == nil || s.log == nil {
		return 0
	}
	return s.log.DiskUsage()
}

// unreside drops, under a budget, every decoded snapshot whose key the log
// no longer indexes; it follows every call that can compact.
func (s *Store) unreside() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.budgeted.Load() {
		return
	}
	keys := s.log.Keys()
	for key := range s.snaps {
		if _, indexed := slices.BinarySearch(keys, key); !indexed {
			delete(s.snaps, key)
		}
	}
}
