package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"strconv"
	"testing"
	"time"

	"lowvcc/internal/journal"
)

// pbWriter encodes protocol-buffer fields for hand-built test profiles.
type pbWriter struct{ b []byte }

func (w *pbWriter) varint(num int, v uint64) {
	w.b = binary.AppendUvarint(w.b, uint64(num)<<3)
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *pbWriter) bytes(num int, data []byte) {
	w.b = binary.AppendUvarint(w.b, uint64(num)<<3|2)
	w.b = binary.AppendUvarint(w.b, uint64(len(data)))
	w.b = append(w.b, data...)
}

func (w *pbWriter) packed(num int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	w.bytes(num, inner)
}

func TestAttributeHandBuiltProfile(t *testing.T) {
	strs := []string{
		"", "samples", "count", "cpu", "nanoseconds",
		"lowvcc/internal/core.(*Core).run",           // 5
		"lowvcc/internal/rng.(*Source).Uint64",       // 6: a helper package, not a layer
		"runtime.mallocgc",                           // 7
		"lowvcc/internal/cache.(*Cache).Lookup",      // 8
		"main.runCell",                               // 9
		"crypto/sha256.block",                        // 10
		"lowvcc/internal/journal.Key",                // 11
		"lowvcc/internal/sim.(*Runner).stream.func3", // 12
	}
	var p pbWriter
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		var vt pbWriter
		vt.varint(valueTypeType, st[0])
		vt.varint(valueTypeUnit, st[1])
		p.bytes(profSampleType, vt.b)
	}
	// Function i+1 is named by string 5+i.
	for i := 0; i < 8; i++ {
		var f pbWriter
		f.varint(functionID, uint64(i+1))
		f.varint(functionName, uint64(5+i))
		p.bytes(profFunction, f.b)
	}
	// Each location lists its function IDs innermost first; location 2 is
	// cache.Lookup inlined into core.run.
	locs := map[uint64][]uint64{1: {3}, 2: {4, 1}, 3: {2}, 4: {5}, 5: {6}, 6: {7}, 7: {8}, 8: {1}}
	for id := uint64(1); id <= 8; id++ {
		var l pbWriter
		l.varint(locationID, id)
		for _, fn := range locs[id] {
			var line pbWriter
			line.varint(lineFunctionID, fn)
			line.varint(2, 10) // line number
			l.bytes(locationLine, line.b)
		}
		p.bytes(profLocation, l.b)
	}
	samples := []struct {
		locs   []uint64
		ns     uint64
		packed bool
	}{
		{[]uint64{1, 2, 4}, 10, true},  // mallocgc, then cache inlined in core: cache
		{[]uint64{3, 8, 4}, 20, false}, // rng is charged to its caller: core
		{[]uint64{5, 6, 7}, 30, true},  // sha256 inside journal.Key: journal
		{[]uint64{1}, 40, true},        // no repository frame: runtime
		{[]uint64{4}, 50, true},        // the benchmark's own code: bench
		{[]uint64{7}, 60, false},       // a closure in sim
	}
	for _, s := range samples {
		var sw pbWriter
		if s.packed {
			sw.packed(sampleLocationID, s.locs...)
		} else {
			for _, l := range s.locs {
				sw.varint(sampleLocationID, l)
			}
		}
		sw.packed(sampleValue, 1, s.ns)
		p.bytes(profSample, sw.b)
	}
	for _, s := range strs {
		p.bytes(profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	prof, err := decodeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := attribute(prof)
	want := map[string]int64{"cache": 10, "core": 20, "journal": 30, "runtime": 40, "bench": 50, "sim": 60}
	if len(got) != len(want) {
		t.Errorf("attributed to %v, want %v", got, want)
	}
	for l, ns := range want {
		if got[l] != ns {
			t.Errorf("%s: %d ns, want %d", l, got[l], ns)
		}
	}
	if total := totalNS(prof); total != 210 {
		t.Errorf("total %d ns, want 210", total)
	}
}

var sink string

func totalNS(p *cpuProfile) int64 {
	var t int64
	for _, s := range p.samples {
		t += s.ns
	}
	return t
}

func TestAttributeBusyLoopProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink = journal.Key("busy", strconv.Itoa(i))
		}
	}
	pprof.StopCPUProfile()

	prof, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := totalNS(prof)
	if total == 0 {
		t.Fatal("profile holds no samples")
	}
	by := attribute(prof)
	var sum int64
	for _, ns := range by {
		sum += ns
	}
	if sum != total {
		t.Errorf("layers sum to %d ns, profile total %d ns", sum, total)
	}
	if share := float64(by["journal"]) / float64(total); share < 0.5 && !raceEnabled {
		t.Errorf("journal got %.0f%% of a loop calling journal.Key: %v", 100*share, by)
	}
}
