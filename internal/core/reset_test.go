package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/ckpt"
	"lowvcc/internal/core"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

// lifecycle is what one core does after New or ResetTo in the checks
// below: a functional warm-up of the trace's first half captured as a
// checkpoint (the sharded-window path), the measured second half, then a
// Reset and the unsharded warm + measured pass.
type lifecycle struct {
	snap    []byte
	results []*core.Result
}

func runLifecycle(t *testing.T, c *core.Core, tr *trace.Trace) lifecycle {
	t.Helper()
	k := len(tr.Insts) / 2
	if err := c.WarmReplay(tr, k); err != nil {
		t.Fatalf("warm replay: %v", err)
	}
	ws, err := c.CaptureWarm()
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	out := lifecycle{snap: ckpt.EncodeSnapshot(ws)}
	window, err := c.RunWarmed(tr, k)
	if err != nil {
		t.Fatalf("window: %v", err)
	}
	if err := c.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	warm, err := c.Run(tr)
	if err != nil {
		t.Fatalf("warm-up run: %v", err)
	}
	measured, err := c.Run(tr)
	if err != nil {
		t.Fatalf("measured run: %v", err)
	}
	out.results = []*core.Result{window, warm, measured}
	return out
}

// checkReuse runs a on one core, resets it to b and requires the same
// lifecycle on it as on core.New(b).
func checkReuse(t *testing.T, a, b core.Config, trA, trB *trace.Trace) {
	t.Helper()
	c, err := core.New(a)
	if err != nil {
		t.Fatalf("new A: %v", err)
	}
	if _, err := c.Run(trA); err != nil {
		t.Fatalf("dirty run: %v", err)
	}
	if err := c.ResetTo(b); err != nil {
		t.Fatalf("reset to B: %v", err)
	}
	reused := runLifecycle(t, c, trB)
	fresh, err := core.New(b)
	if err != nil {
		t.Fatalf("new B: %v", err)
	}
	want := runLifecycle(t, fresh, trB)
	if !bytes.Equal(reused.snap, want.snap) {
		t.Errorf("warm capture after ResetTo differs from a fresh core's (%d vs %d bytes)", len(reused.snap), len(want.snap))
	}
	for i, name := range []string{"window", "warm-up run", "measured run"} {
		if !reflect.DeepEqual(reused.results[i], want.results[i]) {
			t.Errorf("%s after ResetTo diverges from a fresh core:\nfresh:  %+v\nreused: %+v", name, want.results[i], reused.results[i])
		}
	}
}

// resizeHierarchy gives cfg a memory system, IQ and predictor of another
// size: variant 1 larger (and a DL0 of more than eight ways, which leaves
// the packed LRU order), variant 2 smaller; 0 keeps the defaults.
func resizeHierarchy(cfg *core.Config, variant int) {
	h, p := &cfg.Hierarchy, &cfg.Predictor
	switch variant {
	case 1:
		h.UL1.Sets *= 2
		h.DL0.Ways = 12
		h.FillBufferEntries, h.WCBEntries = 12, 4
		h.StoresPerCycle, h.MaxStabilize = 2, 6
		cfg.IQ.Size = 64
		p.BPEntries, p.RSBEntries, p.HistoryBits = 8192, 16, 6
	case 2:
		h.UL1.Sets /= 4
		h.IL0.Sets /= 2
		h.ITLB.Sets, h.ITLB.Ways = 8, 2
		cfg.IQ.Size = 16
		p.BPEntries, p.RSBEntries = 1024, 4
	}
}

// TestResetMatchesFreshCore is the contract the checkpoint store and the
// sim runner's recycled cores rely on: a core that ran one configuration
// and was then reset to another must match a core built fresh for the
// second — results and warm captures alike — whatever the first one's
// mode, Vcc, width, fault map, block sizes or engine.
func TestResetMatchesFreshCore(t *testing.T) {
	faulty := core.DefaultConfigWidth(450, circuit.ModeFaultyBits, 1)
	wide := core.DefaultConfigWidth(650, circuit.ModeExtraBypass, 4)
	resizeHierarchy(&wide, 1)
	ref := core.DefaultConfigWidth(400, circuit.ModeIRAW, 3)
	ref.DisableFastPaths = true
	resizeHierarchy(&ref, 2)
	combined := core.DefaultConfig(500, circuit.ModeIRAW)
	combined.CombineFaultyBits = true
	configs := []core.Config{
		core.DefaultConfig(500, circuit.ModeBaseline),
		core.DefaultConfig(500, circuit.ModeIRAW),
		core.DefaultConfig(500, circuit.ModeFaultyBits),
		core.DefaultConfig(500, circuit.ModeExtraBypass),
		faulty, wide, ref, combined,
	}
	trA := workload.Generate(workload.SpecInt(), 6000, 1)
	trB := workload.Generate(workload.Server(), 6000, 2)
	for i, a := range configs {
		for j, b := range configs {
			if i == j {
				continue
			}
			checkReuse(t, a, b, trA, trB)
			if t.Failed() {
				t.Fatalf("config %d (%v %v w%d) reset to config %d (%v %v w%d)",
					i, a.Mode, a.Vcc, a.Width, j, b.Mode, b.Vcc, b.Width)
			}
		}
	}
}

// fuzzConfig decodes 11 bits into a valid configuration: mode (2 bits),
// Vcc level (4), width 1..4 (2), block-size variant (2) and
// DisableFastPaths (1).
func fuzzConfig(bits uint16) core.Config {
	modes := []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW, circuit.ModeFaultyBits, circuit.ModeExtraBypass}
	levels := circuit.Levels()
	cfg := core.DefaultConfigWidth(levels[int(bits>>2&15)%len(levels)], modes[bits&3], 1+int(bits>>6&3))
	resizeHierarchy(&cfg, int(bits>>8&3)%3)
	cfg.DisableFastPaths = bits>>10&1 == 1
	return cfg
}

// FuzzResetTo checks TestResetMatchesFreshCore's contract over arbitrary
// (config A, config B, trace seed) triples.
func FuzzResetTo(f *testing.F) {
	f.Add(uint16(0x0000), uint16(0x0045), uint64(1))  // baseline 700 mV -> IRAW, width 2
	f.Add(uint16(0x0166), uint16(0x0003), uint64(2))  // faulty bits, larger blocks -> extra bypass
	f.Add(uint16(0x06fd), uint16(0x0122), uint64(3))  // reference engine, smaller blocks -> faulty bits
	f.Add(uint16(0x00c1), uint16(0x0281), uint64(42)) // width 4 -> reference engine, smaller blocks
	profiles := append(workload.Profiles(), workload.MemBound())
	f.Fuzz(func(t *testing.T, a, b uint16, seed uint64) {
		p := profiles[seed%uint64(len(profiles))]
		trA := workload.Generate(p, 2000, seed)
		trB := workload.Generate(p, 2000, seed+1)
		checkReuse(t, fuzzConfig(a), fuzzConfig(b), trA, trB)
	})
}

// TestResetAllocs guards the in-place lifecycle: resetting a core that has
// run, to its own configuration, clears its blocks without rebuilding them.
func TestResetAllocs(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 5000, 1)
	for _, mode := range []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW, circuit.ModeFaultyBits, circuit.ModeExtraBypass} {
		c := core.MustNew(core.DefaultConfig(500, mode))
		if _, err := c.Run(tr); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := c.Reset(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%v: Reset allocated %.0f times, want at most 1", mode, allocs)
		}
	}
}
