package ckpt_test

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/ckpt"
	"lowvcc/internal/core"
	"lowvcc/internal/journal"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

func testTrace(t *testing.T) *trace.Trace {
	t.Helper()
	return workload.LongTrace(40000, 7)
}

func warmSnapshot(t *testing.T, cfg core.Config, tr *trace.Trace, n int) *core.WarmState {
	t.Helper()
	c := core.MustNew(cfg)
	if err := c.WarmReplay(tr, n); err != nil {
		t.Fatal(err)
	}
	ws, err := c.CaptureWarm()
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// TestWarmStateVccIndependence: the access-order contract promises warm
// state is a pure function of the instruction sequence — so snapshots
// captured at different Vcc levels, and under modes that do not install
// fault maps, must be byte-identical. This is the invariant that lets one
// snapshot serve every operating point of a sweep.
func TestWarmStateVccIndependence(t *testing.T) {
	tr := testTrace(t)
	const n = 30000
	ref := ckpt.EncodeSnapshot(warmSnapshot(t, core.DefaultConfig(500, circuit.ModeIRAW), tr, n))
	for _, cfg := range []core.Config{
		core.DefaultConfig(700, circuit.ModeIRAW),
		core.DefaultConfig(400, circuit.ModeIRAW),
		core.DefaultConfig(500, circuit.ModeBaseline),
		core.DefaultConfig(600, circuit.ModeExtraBypass),
	} {
		got := ckpt.EncodeSnapshot(warmSnapshot(t, cfg, tr, n))
		if !bytes.Equal(got, ref) {
			t.Errorf("warm snapshot at %v %v differs from 500mV iraw reference", cfg.Vcc, cfg.Mode)
		}
	}

	// Mode-irrelevant knobs must not leak into the snapshot either.
	knobbed := core.DefaultConfig(450, circuit.ModeIRAW)
	knobbed.ForcedN = 3
	knobbed.DisableFastPaths = true
	if got := ckpt.EncodeSnapshot(warmSnapshot(t, knobbed, tr, n)); !bytes.Equal(got, ref) {
		t.Error("timing-only knobs (ForcedN, DisableFastPaths) changed the warm snapshot")
	}

	// Fault maps do shape warm evolution (disabled lines change victim
	// selection): same seed and sigma must agree across Vcc, and the key
	// must separate them from the no-map configurations.
	fb1 := ckpt.EncodeSnapshot(warmSnapshot(t, core.DefaultConfig(500, circuit.ModeFaultyBits), tr, n))
	fb2 := ckpt.EncodeSnapshot(warmSnapshot(t, core.DefaultConfig(425, circuit.ModeFaultyBits), tr, n))
	if !bytes.Equal(fb1, fb2) {
		t.Error("faulty-bits snapshots with identical fault maps differ across Vcc")
	}

	if ckpt.WarmConfigKey(core.DefaultConfig(500, circuit.ModeIRAW)) !=
		ckpt.WarmConfigKey(core.DefaultConfig(700, circuit.ModeBaseline)) {
		t.Error("WarmConfigKey split vcc/mode-independent configurations")
	}
	if ckpt.WarmConfigKey(core.DefaultConfig(500, circuit.ModeIRAW)) ==
		ckpt.WarmConfigKey(core.DefaultConfig(500, circuit.ModeFaultyBits)) {
		t.Error("WarmConfigKey merged fault-mapped and map-free configurations")
	}
	seeded := core.DefaultConfig(500, circuit.ModeFaultyBits)
	seeded.Seed = 99
	if ckpt.WarmConfigKey(core.DefaultConfig(500, circuit.ModeFaultyBits)) == ckpt.WarmConfigKey(seeded) {
		t.Error("WarmConfigKey ignored the fault-map seed")
	}
}

// TestWarmSegmentationInvariance: replaying a prefix in arbitrary segments
// leaves the same canonical snapshot as one continuous replay — the
// property that makes restore-plus-residual-tail interchangeable with live
// warm-up.
func TestWarmSegmentationInvariance(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	const n = 30000
	ref := ckpt.EncodeSnapshot(warmSnapshot(t, cfg, tr, n))

	for _, cuts := range [][]int{
		{10000, 20000},
		{1, 2, 3, 29999},
		{4096, 8192, 12288, 16384},
		{29999},
	} {
		c := core.MustNew(cfg)
		pos := 0
		for _, cut := range append(cuts, n) {
			if err := c.WarmReplayRange(tr, pos, cut); err != nil {
				t.Fatal(err)
			}
			pos = cut
		}
		ws, err := c.CaptureWarm()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ckpt.EncodeSnapshot(ws), ref) {
			t.Errorf("segmented replay %v differs from continuous replay", cuts)
		}
	}
}

// TestWarmRestoreRoundTrip: restore into a fresh core reproduces the
// snapshot bit-for-bit (capture(restore(s)) == s), and a measured run from
// the restored core matches one from a live-replayed core exactly.
func TestWarmRestoreRoundTrip(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	const n = 30000
	ws := warmSnapshot(t, cfg, tr, n)
	enc := ckpt.EncodeSnapshot(ws)

	restored := core.MustNew(cfg)
	if err := restored.RestoreWarm(ws); err != nil {
		t.Fatal(err)
	}
	ws2, err := restored.CaptureWarm()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt.EncodeSnapshot(ws2), enc) {
		t.Fatal("capture(restore(s)) != s")
	}

	live := core.MustNew(cfg)
	if err := live.WarmReplay(tr, n); err != nil {
		t.Fatal(err)
	}
	resLive, err := live.RunWarmed(tr, n)
	if err != nil {
		t.Fatal(err)
	}
	resRestored, err := restored.RunWarmed(tr, n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resLive, resRestored) {
		t.Fatal("measured run from restored core differs from live-replayed core")
	}
}

// TestWarmRestoreRejectsFaultMapMismatch: a snapshot built under one fault
// map must not restore into a core with a different one — the disabled
// lines differ, so the warm evolutions diverge.
func TestWarmRestoreRejectsFaultMapMismatch(t *testing.T) {
	tr := testTrace(t)
	cfg1 := core.DefaultConfig(500, circuit.ModeFaultyBits)
	cfg2 := cfg1
	cfg2.Seed = 99
	ws := warmSnapshot(t, cfg1, tr, 30000)
	if err := core.MustNew(cfg2).RestoreWarm(ws); err == nil {
		t.Fatal("restore under a different fault map succeeded")
	} else if !strings.Contains(err.Error(), "fault-map") {
		t.Fatalf("unexpected mismatch error: %v", err)
	}
}

// TestWarmToEquivalence: warming through the checkpoint store — cold
// (capturing), warm (restoring), and on disk across store instances — is
// result-identical to a live replay, for boundary spacings that divide the
// prefix exactly and ones that leave a residual tail.
func TestWarmToEquivalence(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(475, circuit.ModeIRAW)
	th := "trace-under-test"
	wk := ckpt.WarmConfigKey(cfg)

	for _, tc := range []struct{ n, interval int }{
		{30000, 10000}, // boundary-aligned: steady state is restore-only
		{30000, 7000},  // residual tail after the last boundary
		{30000, 40000}, // interval beyond the prefix: pure live replay
		{9999, 2500},
	} {
		live := core.MustNew(cfg)
		if err := live.WarmReplay(tr, tc.n); err != nil {
			t.Fatal(err)
		}
		want, err := live.RunWarmed(tr, tc.n)
		if err != nil {
			t.Fatal(err)
		}

		dir := t.TempDir()
		for round := 0; round < 3; round++ {
			st, err := ckpt.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if round == 2 {
				// Fresh store handle on the same directory: the disk format
				// round-trips, not just the in-memory map.
				if st2, err := ckpt.Open(dir); err == nil {
					st = st2
				}
			}
			c := core.MustNew(cfg)
			if err := st.WarmTo(c, th, wk, tc.interval, tr, tc.n); err != nil {
				t.Fatal(err)
			}
			got, err := c.RunWarmed(tr, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d interval=%d round %d: checkpointed warm-up changed the Result",
					tc.n, tc.interval, round)
			}
		}
	}
}

// TestWarmToResetsAfterFailedRestore: a restore that fails part-way (the
// hierarchy restores IL0 and DL0 before rejecting a UL1 of another shape)
// must not leave its partial state behind. Snapshots captured under the
// default config are probed, under the same keys, by a core with half the
// UL1 sets: every probe fails, and the warm-up must still equal a live
// replay on a fresh core.
func TestWarmToResetsAfterFailedRestore(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	th, wk := "trace-under-test", ckpt.WarmConfigKey(cfg)
	const n, interval = 30000, 10000
	st, err := ckpt.Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WarmTo(core.MustNew(cfg), th, wk, interval, tr, n); err != nil {
		t.Fatal(err)
	}

	small := cfg
	small.Hierarchy.UL1.Sets /= 2
	live := core.MustNew(small)
	if err := live.WarmReplay(tr, n); err != nil {
		t.Fatal(err)
	}
	want, err := live.RunWarmed(tr, n)
	if err != nil {
		t.Fatal(err)
	}

	c := core.MustNew(small)
	if err := st.WarmTo(c, th, wk, interval, tr, n); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Corrupt == 0 {
		t.Fatal("no restore failed: the test does not reach the fallback")
	}
	got, err := c.RunWarmed(tr, n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warm-up after failed restores: %d cycles, live replay %d", got.Run.Cycles, want.Run.Cycles)
	}
}

// TestWarmToNilStore: a nil store degrades to exactly the live replay.
func TestWarmToNilStore(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	const n = 20000

	live := core.MustNew(cfg)
	if err := live.WarmReplay(tr, n); err != nil {
		t.Fatal(err)
	}
	want, err := live.RunWarmed(tr, n)
	if err != nil {
		t.Fatal(err)
	}

	var st *ckpt.Store
	c := core.MustNew(cfg)
	if err := st.WarmTo(c, "x", "y", 5000, tr, n); err != nil {
		t.Fatal(err)
	}
	got, err := c.RunWarmed(tr, n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("nil-store WarmTo differs from live replay")
	}
}

// TestCorruptCheckpointsDetected: a truncated and a scrambled snapshot
// record are detected misses — WarmTo falls back to live replay with
// identical results and rebuilds the damaged snapshot.
func TestCorruptCheckpointsDetected(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	th, wk := "trace-under-test", ckpt.WarmConfigKey(cfg)
	const n, interval = 20000, 10000

	dir := t.TempDir()
	st, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmed := core.MustNew(cfg)
	if err := st.WarmTo(warmed, th, wk, interval, tr, n); err != nil {
		t.Fatal(err)
	}
	want, err := warmed.RunWarmed(tr, n)
	if err != nil {
		t.Fatal(err)
	}

	damage := []func(){
		func() { // cut the deepest snapshot's record, the file's last, mid-record
			path, off, size := recordAt(t, dir, ckpt.SnapshotKey(th, wk, n))
			if err := os.Truncate(path, int64(off+size/2)); err != nil {
				t.Fatal(err)
			}
		},
		func() { // flip a payload byte in every snapshot's record
			for b := interval; b <= n; b += interval {
				flipRecord(t, dir, ckpt.SnapshotKey(th, wk, b))
			}
		},
	}
	for i, corrupt := range damage {
		corrupt()
		// A fresh store sees only the damaged records.
		st, err := ckpt.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		c := core.MustNew(cfg)
		if err := st.WarmTo(c, th, wk, interval, tr, n); err != nil {
			t.Fatal(err)
		}
		got, err := c.RunWarmed(tr, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("damage %d: corrupt checkpoint changed the Result", i)
		}
		if s := st.Stats(); s.Corrupt == 0 {
			t.Errorf("damage %d: corruption not counted (stats %+v)", i, s)
		}
		// The rebuild must have superseded the damaged snapshot: a second
		// fresh store restores cleanly.
		st2, err := ckpt.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := st2.Get(ckpt.SnapshotKey(th, wk, n)); !ok {
			t.Errorf("damage %d: snapshot not rebuilt after corruption", i)
		}
	}
}

// TestPutServedByLaterHandle: a snapshot Put through one handle is served,
// byte for byte, by a store opened afterwards on the same directory while
// the writer is still open; a store opened before the Put serves the
// records present at its Open, not the newcomer.
func TestPutServedByLaterHandle(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	dir := t.TempDir()
	early, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ws := warmSnapshot(t, cfg, tr, 10000)
	key := ckpt.SnapshotKey("later-handle", ckpt.WarmConfigKey(cfg), 10000)
	writer.Put(key, ws)
	later, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := later.Get(key)
	if !ok || !bytes.Equal(ckpt.EncodeSnapshot(got), ckpt.EncodeSnapshot(ws)) {
		t.Fatalf("a store opened after the Put serves it: %v", ok)
	}
	if _, ok := early.Get(key); ok {
		t.Error("a store opened before the Put served it")
	}
}

// TestFlippedRecordRecaptured: a snapshot record with a flipped payload
// byte is a counted miss, WarmTo captures the snapshot again, and a store
// opened afterwards serves the new copy, equal to the original.
func TestFlippedRecordRecaptured(t *testing.T) {
	tr := testTrace(t)
	cfg := core.DefaultConfig(500, circuit.ModeIRAW)
	th, wk := "flipped-trace", ckpt.WarmConfigKey(cfg)
	const n = 10000
	key := ckpt.SnapshotKey(th, wk, n)
	dir := t.TempDir()
	st, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WarmTo(core.MustNew(cfg), th, wk, n, tr, n); err != nil {
		t.Fatal(err)
	}
	orig, _ := st.Get(key)
	flipRecord(t, dir, key)

	re, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.WarmTo(core.MustNew(cfg), th, wk, n, tr, n); err != nil {
		t.Fatal(err)
	}
	if s := re.Stats(); s.Corrupt != 1 || s.Misses != 1 || s.Captures != 1 || s.Replays != 1 {
		t.Fatalf("stats %+v: want the flipped record a counted miss, then one capture", s)
	}
	fresh, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := fresh.Get(key)
	if !ok || !bytes.Equal(ckpt.EncodeSnapshot(got), ckpt.EncodeSnapshot(orig)) {
		t.Fatalf("a re-opened store does not serve the recaptured copy: %v", ok)
	}
}

// BenchmarkOpenSnapshotLog times journal.Open over a directory of 100
// default-geometry snapshot records (about 230 KB each): Open reads each
// record's header and skips its payload. It reports the wall time per
// Open.
func BenchmarkOpenSnapshotLog(b *testing.B) {
	const step, count = 2000, 100
	tr := workload.LongTrace(count*step+step, 1)
	c := core.MustNew(core.DefaultConfig(500, circuit.ModeIRAW))
	dir := b.TempDir()
	st, err := ckpt.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= count; i++ {
		if err := c.WarmReplayRange(tr, (i-1)*step, i*step); err != nil {
			b.Fatal(err)
		}
		ws, err := c.CaptureWarm()
		if err != nil {
			b.Fatal(err)
		}
		st.Put(ckpt.SnapshotKey("bench", "open", i*step), ws)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := journal.Open(dir)
		if err != nil || len(j.Keys()) != count {
			b.Fatalf("Open indexed %d of %d records: %v", len(j.Keys()), count, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/open")
}

// BenchmarkSnapshotStore times one default-geometry snapshot through the
// disk: a Put into the store's log, then a Get from a fresh handle, which
// opens the log, then reads, checks and decodes the record. Each iteration stores a new snapshot
// 2,000 instructions further into a long trace (captured with the timer
// stopped), so no two are alike. It reports the wall time and the files
// the directory holds per snapshot.
func BenchmarkSnapshotStore(b *testing.B) {
	const step = 2000
	tr := workload.LongTrace(b.N*step+step, 1)
	c := core.MustNew(core.DefaultConfig(500, circuit.ModeIRAW))
	dir := b.TempDir()
	st, err := ckpt.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := c.WarmReplayRange(tr, i*step, (i+1)*step); err != nil {
			b.Fatal(err)
		}
		ws, err := c.CaptureWarm()
		if err != nil {
			b.Fatal(err)
		}
		key := ckpt.SnapshotKey("bench", "store", (i+1)*step)
		b.StartTimer()
		st.Put(key, ws)
		fresh, err := ckpt.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := fresh.Get(key); !ok {
			b.Fatal("stored snapshot does not load from a fresh handle")
		}
	}
	b.StopTimer()
	ents, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	files := 0
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), ".") {
			files++
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/snapshot")
	b.ReportMetric(float64(files)/float64(b.N), "files/snapshot")
}
