package ckpt

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"lowvcc/internal/cache"
	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/workload"
)

func replayedWarmState(tb testing.TB, cfg core.Config, insts, warm int) *core.WarmState {
	tb.Helper()
	c := core.MustNew(cfg)
	if err := c.WarmReplay(workload.LongTrace(insts, 7), warm); err != nil {
		tb.Fatal(err)
	}
	ws, err := c.CaptureWarm()
	if err != nil {
		tb.Fatal(err)
	}
	return ws
}

// TestHierarchyWarmEncodingPinned pins the encoded memory-side warm state
// of a fixed replay to recorded digests, so snapshot files stay
// byte-identical whatever the in-memory layout of caches and sram arrays.
// The Faulty-Bits case covers disabled ways.
func TestHierarchyWarmEncodingPinned(t *testing.T) {
	for _, tc := range []struct {
		mode circuit.Mode
		want string
	}{
		{circuit.ModeIRAW, "5a369b11207bf91ab81cfec18def83e4ef399245ed737392d82a4d9261f0851a"},
		{circuit.ModeFaultyBits, "bef97427ee631a905f256655befae7f57bf594e54a61ce50a8d83d4d15505f63"},
	} {
		m := replayedWarmState(t, core.DefaultConfig(500, tc.mode), 40000, 30000).Mem
		h := sha256.New()
		for _, w := range []*cache.WarmState{m.IL0, m.DL0, m.UL1, m.ITLB, m.DTLB} {
			h.Write(encodeCache(w))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
			t.Errorf("%v: encoded hierarchy warm state hashes to %s, want %s", tc.mode, got, tc.want)
		}
	}
}

// smallConfig shrinks the hierarchy so whole-snapshot fuzz inputs are a few
// KiB, which the fuzzer mutates orders of magnitude faster than a
// default-sized one.
func smallConfig() core.Config {
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	for _, c := range []*cache.Config{&cfg.Hierarchy.IL0, &cfg.Hierarchy.DL0, &cfg.Hierarchy.UL1} {
		c.Sets = 4
	}
	cfg.Hierarchy.ITLB.Sets, cfg.Hierarchy.DTLB.Sets = 2, 2
	return cfg
}

// FuzzDecodeWarm throws arbitrary bytes at the checkpoint decoders and the
// restores that consume their output: each component decoder on the raw
// input, and the input as an EncodeSnapshot image, decoded and restored
// into a fresh core. Nothing may panic (a restore may reject what it cannot
// load); a decoded component or snapshot must re-encode to the bytes it
// came from.
func FuzzDecodeWarm(f *testing.F) {
	cfg := smallConfig()
	ws := replayedWarmState(f, cfg, 3000, 2500)
	snap := EncodeSnapshot(ws)
	f.Add(snap)
	f.Add(snap[:len(snap)-9])
	f.Add(encodeCache(ws.Mem.DTLB))
	f.Add(encodeBP(ws.BP))
	wide := encodeBP(ws.BP)
	wide[8+len(ws.BP.Counters)+7] = 1 // History with bit 56 set: not a 32-bit value
	f.Add(wide)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		if w, err := decodeCache(data); err == nil {
			if !bytes.Equal(encodeCache(w), data) {
				t.Fatal("decoded cache component re-encodes differently")
			}
			h := cache.MustNewHierarchy(cfg.Hierarchy, false)
			for _, c := range []*cache.Cache{h.IL0, h.DL0, h.UL1, h.ITLB, h.DTLB} {
				_ = c.RestoreWarm(w)
			}
		}
		if w, err := decodeBP(data); err == nil && !bytes.Equal(encodeBP(w), data) {
			t.Fatal("decoded predictor component re-encodes differently")
		}
		ws, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeSnapshot(ws), data) {
			t.Fatal("decoded snapshot re-encodes differently")
		}
		_ = core.MustNew(cfg).RestoreWarm(ws)
	})
}

// FuzzSnapshotFile writes arbitrary bytes as a store's record file and
// runs them through exactly what Get and WarmTo do with a stored
// snapshot: Open indexes the file, Get reads, checks and decodes each
// record, then RestoreWarm loads the snapshot into a fresh small-geometry
// core. Nothing may panic, and a snapshot Get accepts must re-encode to
// the payload its record holds.
func FuzzSnapshotFile(f *testing.F) {
	cfg := smallConfig()
	srcDir := f.TempDir()
	src, err := Open(srcDir)
	if err != nil {
		f.Fatal(err)
	}
	key := SnapshotKey("fuzz-trace", WarmConfigKey(cfg), 2500)
	src.Put(key, replayedWarmState(f, cfg, 3000, 2500))
	names, err := filepath.Glob(filepath.Join(srcDir, "*.rec"))
	if err != nil || len(names) != 1 {
		f.Fatalf("store wrote %d record files (%v), want 1", len(names), err)
	}
	file, err := os.ReadFile(names[0])
	if err != nil {
		f.Fatal(err)
	}
	nl := bytes.IndexByte(file, '\n')
	flipped := bytes.Clone(file)
	flipped[nl-len(strconv.Itoa(len(file)-nl-1))-2] ^= 0x01 // last checksum digit
	long := bytes.Replace(file, []byte(fmt.Sprintf(" %d\n", len(file)-nl-1)), []byte(fmt.Sprintf(" %d\n", len(file)-nl)), 1)
	dir := f.TempDir() // one directory, rewritten per input: fuzzing stays fast
	open := func(t testing.TB, data []byte) *Store {
		if err := os.WriteFile(filepath.Join(dir, "0000000000000000-fuzz.rec"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatalf("Open failed on a readable record file: %v", err)
		}
		return st
	}
	bad := [][]byte{
		file[:nl/2],                    // cut inside the header
		file[:nl+1+(len(file)-nl-1)/2], // cut inside the payload
		flipped,
		long, // length field off by one
	}
	if _, ok := open(f, file).Get(key); !ok {
		f.Fatal("valid snapshot record rejected")
	}
	f.Add(file)
	for i, data := range bad {
		if _, ok := open(f, data).Get(key); ok {
			f.Fatalf("damaged seed %d served a snapshot", i)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		st := open(t, data)
		for _, key := range st.log.Keys() {
			ws, ok := st.Get(key)
			if !ok {
				continue
			}
			if payload, _ := st.log.GetRecord(key); !bytes.Equal(EncodeSnapshot(ws), payload) {
				t.Fatal("accepted snapshot re-encodes differently from its record")
			}
			_ = core.MustNew(cfg).RestoreWarm(ws)
		}
	})
}
