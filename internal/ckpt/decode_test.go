package ckpt

import (
	"bytes"
	"crypto/sha256"
	"fmt"
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
// of a fixed replay to recorded digests, so checkpoint blobs stay
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

// FuzzDecodeWarm throws arbitrary bytes at the checkpoint decoders and the
// restores that consume their output: each component decoder on the raw
// input, and the input split as an EncodeSnapshot image, assembled and
// restored into a fresh core. Nothing may panic (a restore may reject what
// it cannot load); a decoded component must re-encode to the bytes it came
// from.
func FuzzDecodeWarm(f *testing.F) {
	// A small hierarchy keeps whole-snapshot inputs a few KiB, which the
	// fuzzer mutates orders of magnitude faster than a default-sized one.
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	for _, c := range []*cache.Config{&cfg.Hierarchy.IL0, &cfg.Hierarchy.DL0, &cfg.Hierarchy.UL1} {
		c.Sets = 4
	}
	cfg.Hierarchy.ITLB.Sets, cfg.Hierarchy.DTLB.Sets = 2, 2
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
			h := cache.MustNewHierarchy(cfg.Hierarchy)
			for _, c := range []*cache.Cache{h.IL0, h.DL0, h.UL1, h.ITLB, h.DTLB} {
				_ = c.RestoreWarm(w)
			}
		}
		if w, err := decodeBP(data); err == nil && !bytes.Equal(encodeBP(w), data) {
			t.Fatal("decoded predictor component re-encodes differently")
		}

		d := &decoder{buf: data}
		payloads := map[string][]byte{}
		for _, name := range componentNames {
			payloads[name] = d.bytes()
		}
		ws, err := assemble(payloads)
		if err != nil {
			return
		}
		_ = core.MustNew(cfg).RestoreWarm(ws)
	})
}
