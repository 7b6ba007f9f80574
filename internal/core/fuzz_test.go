package core

import (
	"fmt"
	"reflect"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/rng"
	"lowvcc/internal/stats"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

// TestRandomizedConfigsNeverDeadlockOrCorrupt drives the pipeline through
// randomized (profile, voltage, mode, N) points: every run must terminate
// (no watchdog) and, whenever avoidance is active, consume zero corrupt
// values. This is the repo's crash/deadlock fuzz harness in miniature.
func TestRandomizedConfigsNeverDeadlockOrCorrupt(t *testing.T) {
	src := rng.New(0xF00D)
	profiles := append(workload.Profiles(), workload.MemBound())
	levels := circuit.Levels()
	modes := []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW,
		circuit.ModeFaultyBits, circuit.ModeExtraBypass}
	iters := 40
	if testing.Short() {
		iters = 10
	}
	for i := 0; i < iters; i++ {
		p := profiles[src.Intn(len(profiles))]
		v := levels[src.Intn(len(levels))]
		mode := modes[src.Intn(len(modes))]
		n := 1 + src.Intn(3)
		insts := 2000 + src.Intn(4000)

		cfg := DefaultConfig(v, mode)
		if mode == circuit.ModeIRAW {
			switch src.Intn(3) {
			case 0:
				cfg.ForcedN = n
			case 1:
				cfg.CombineFaultyBits = true
			}
		}
		tr := workload.Generate(p, insts, uint64(i)+99)
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("iter %d (%s %v %v): %v", i, p.Name, v, mode, err)
		}
		res, err := c.Run(tr)
		if err != nil {
			t.Fatalf("iter %d (%s %v %v N=%d): %v", i, p.Name, v, mode, cfg.ForcedN, err)
		}
		if res.Run.Instructions != uint64(insts) {
			t.Fatalf("iter %d: retired %d of %d", i, res.Run.Instructions, insts)
		}
		if res.CorruptConsumed != 0 || res.IntegrityErrors != 0 {
			t.Fatalf("iter %d (%s %v %v): corrupt=%d integ=%d",
				i, p.Name, v, mode, res.CorruptConsumed, res.IntegrityErrors)
		}
		// A second run on the same warm core must also stay clean.
		res2, err := c.Run(tr)
		if err != nil {
			t.Fatalf("iter %d warm rerun: %v", i, err)
		}
		if res2.CorruptConsumed != 0 || res2.IntegrityErrors != 0 {
			t.Fatalf("iter %d warm rerun: corrupt=%d integ=%d",
				i, res2.CorruptConsumed, res2.IntegrityErrors)
		}
	}
}

// matchReferenceEngine is the one equivalence check between the fast
// engine and the reference engine, Config.DisableFastPaths: the same
// inputs run through the event-driven loop with idle-cycle skipping and
// the cache blocks' live-way mask scans, packed-LRU victim and MSHR record
// generations, and through a loop that steps every cycle over the full way
// and tick scans and a lazily pruned MSHR table. Every Result field
// (cycles, stall histograms, violation counters, cache/BP statistics) must
// be bit-identical, cold and warm. Both engines must also keep the cycle
// accounting whole: every cycle lands in exactly one IssueHist and one
// FetchHist bucket, and only issue-0 cycles carry a stall attribution.
func matchReferenceEngine(t *testing.T, tag string, cfg Config, tr *trace.Trace) {
	t.Helper()
	refCfg := cfg
	refCfg.DisableFastPaths = true
	fast, ref := MustNew(cfg), MustNew(refCfg)
	for pass := 0; pass < 2; pass++ {
		fr, err := fast.Run(tr)
		if err != nil {
			t.Fatalf("%s pass %d: fast engine: %v", tag, pass, err)
		}
		rr, err := ref.Run(tr)
		if err != nil {
			t.Fatalf("%s pass %d: reference engine: %v", tag, pass, err)
		}
		if !reflect.DeepEqual(fr, rr) {
			t.Fatalf("%s pass %d: engines diverge\nfast:      %+v\nreference: %+v", tag, pass, fr, rr)
		}
		for _, r := range []struct {
			engine string
			run    stats.Run
		}{{"fast", fr.Run}, {"reference", rr.Run}} {
			var issue, fetch, stalls uint64
			for k := range r.run.IssueHist {
				issue += r.run.IssueHist[k]
				fetch += r.run.FetchHist[k]
			}
			for _, n := range r.run.IssueStalls {
				stalls += n
			}
			if issue != r.run.Cycles || fetch != r.run.Cycles || stalls > r.run.IssueHist[0] {
				t.Fatalf("%s pass %d: %s engine: sum IssueHist %d, sum FetchHist %d, cycles %d, sum IssueStalls %d > IssueHist[0] %d",
					tag, pass, r.engine, issue, fetch, r.run.Cycles, stalls, r.run.IssueHist[0])
			}
		}
	}
}

// fuzzReferenceEngine runs iters randomized points (every profile plus
// MemBound, every level and mode, IRAW ones with a forced N, Faulty Bits
// combined or avoidance disabled) through matchReferenceEngine. With
// allWidths the width cycles through 1..MaxWidth; otherwise every point
// runs at the default width.
func fuzzReferenceEngine(t *testing.T, seed, traceSeed uint64, iters int, allWidths bool) {
	t.Helper()
	src := rng.New(seed)
	profiles := append(workload.Profiles(), workload.MemBound())
	levels := circuit.Levels()
	modes := []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW,
		circuit.ModeFaultyBits, circuit.ModeExtraBypass}
	if testing.Short() {
		iters = 8
	}
	for i := 0; i < iters; i++ {
		p := profiles[src.Intn(len(profiles))]
		v := levels[src.Intn(len(levels))]
		mode := modes[src.Intn(len(modes))]
		insts := 1500 + src.Intn(3000)

		cfg := DefaultConfig(v, mode)
		if allWidths {
			cfg = DefaultConfigWidth(v, mode, 1+i%MaxWidth)
		}
		if mode == circuit.ModeIRAW {
			switch src.Intn(4) {
			case 0:
				cfg.ForcedN = 1 + src.Intn(3)
			case 1:
				cfg.CombineFaultyBits = true
			case 2:
				cfg.DisableAvoidance = true
			}
		}
		tr := workload.Generate(p, insts, uint64(i)+traceSeed)
		matchReferenceEngine(t, fmt.Sprintf("iter %d (w=%d %s %v %v N=%d faulty=%v unsafe=%v)", i, cfg.Width, p.Name, v, mode,
			cfg.ForcedN, cfg.CombineFaultyBits, cfg.DisableAvoidance), cfg, tr)
	}
}

// TestSkipEngineMatchesSteppedEngine holds the default-width engine, whose
// idle-cycle skip jumps over cycles in which nothing can change, to the
// reference engine that steps every one of them, on randomized points.
func TestSkipEngineMatchesSteppedEngine(t *testing.T) {
	fuzzReferenceEngine(t, 0xBEEFCAFE, 1234, 30, false)
}

// TestFastPathsMatchDisabledEngine holds the fast engine to the reference
// engine on randomized points at every width, and on a 60k-instruction
// MemBound trace at every width, long enough (hundreds of thousands of
// cycles against a generation width of a few thousand) to rotate the MSHR
// generations many times.
func TestFastPathsMatchDisabledEngine(t *testing.T) {
	fuzzReferenceEngine(t, 0xFA57C0DE, 4242, 30, true)

	modes := []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW,
		circuit.ModeFaultyBits, circuit.ModeExtraBypass}
	long := workload.Generate(workload.MemBound(), 60000, 4243)
	for width := 1; width <= MaxWidth; width++ {
		mode := modes[width-1]
		cfg := DefaultConfigWidth(500, mode, width)
		matchReferenceEngine(t, fmt.Sprintf("long MemBound (w=%d %v)", width, mode), cfg, long)
	}
}

// TestWidthsMatchReferenceEngine extends the equivalence to the whole
// width axis: for every width in 1..MaxWidth the fast engine must match
// the reference engine on its own set of randomized points. Width 2 is
// also covered by the recorded golden.
func TestWidthsMatchReferenceEngine(t *testing.T) {
	fuzzReferenceEngine(t, 0x51DE, 31337, 24, true)
}

// TestSkipEquivalenceUnderHoldPressure targets the overlapping-port-hold
// attribution corner: DTLB walk-fill holds that coincide with DL0 fill
// windows registered for future cycles, which is exactly where a skip
// bounded only by the DTLB-free time would misattribute StallDL0IRAW cycles
// as StallOtherIRAW. At 475 mV a memory fill takes 42 cycles, close to a
// 30-cycle page walk plus N, so a fill started by one access lands inside
// the walk-fill hold of the access behind it. A 1 MiB working set overruns
// the DTLB's 256 KiB reach, and a store-heavy, load-light mix keeps the
// D-side busy with few register wake-ups to cut the skip short. Dropping
// the DL0 bound from issueRetryAt makes most of these runs diverge.
func TestSkipEquivalenceUnderHoldPressure(t *testing.T) {
	p := workload.MemBound()
	p.Load, p.Store = 0.10, 0.45
	p.ALU = 1 - p.Load - p.Store - p.Branch - p.Call
	p.DataWorkingSet = 1 << 20
	for _, forcedN := range []int{3, 4} {
		for seed := uint64(0); seed < 4; seed++ {
			cfg := DefaultConfig(475, circuit.ModeIRAW)
			cfg.ForcedN = forcedN
			tr := workload.Generate(p, 20000, seed+500)
			matchReferenceEngine(t, fmt.Sprintf("hold pressure (N=%d seed %d)", forcedN, seed), cfg, tr)
		}
	}
}

// TestGateDeadlockStepsLikeReferenceEngine: an IQ smaller than its gate
// threshold (ICI + AI*N) fills up and never issues again. Then no stage
// acts and no event is due, so only the idle-cycle skip's gate-stall
// exclusion keeps the fast engine stepping: both engines must trip the
// watchdog at the same cycle, each having charged every gate-blocked cycle
// to the queue's gate-stall counter.
func TestGateDeadlockStepsLikeReferenceEngine(t *testing.T) {
	cfg := DefaultConfig(500, circuit.ModeIRAW)
	cfg.ForcedN = 2
	cfg.IQ.Size = 4 // below the threshold 2 + 2*2
	cfg.MaxCycles = 5000
	refCfg := cfg
	refCfg.DisableFastPaths = true
	fast, ref := MustNew(cfg), MustNew(refCfg)
	tr := workload.Generate(workload.SpecInt(), 2000, 11)
	_, ferr := fast.Run(tr)
	_, rerr := ref.Run(tr)
	if ferr == nil || rerr == nil || ferr.Error() != rerr.Error() {
		t.Fatalf("want one watchdog error from both engines:\nfast:      %v\nreference: %v", ferr, rerr)
	}
	if fast.q.GateStalls != ref.q.GateStalls || ref.q.GateStalls < uint64(cfg.MaxCycles)/2 {
		t.Fatalf("gate stalls: fast %d, reference %d (watchdog at %d cycles)", fast.q.GateStalls, ref.q.GateStalls, cfg.MaxCycles)
	}
}

// TestWiderCoreIssuesMore pins the point of the width axis: on a compute
// trace at nominal voltage, a 4-wide core must finish in strictly fewer
// cycles than the 2-wide core, and the 1-wide core in strictly more — the
// per-slot issue walk has to actually move extra instructions per cycle.
func TestWiderCoreIssuesMore(t *testing.T) {
	tr := workload.Generate(workload.SpecInt(), 20000, 7)
	cycles := map[int]uint64{}
	for _, w := range []int{1, 2, 4} {
		c := MustNew(DefaultConfigWidth(700, circuit.ModeBaseline, w))
		res, err := c.Run(tr)
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		cycles[w] = res.Run.Cycles
	}
	if !(cycles[4] < cycles[2] && cycles[2] < cycles[1]) {
		t.Fatalf("cycles not strictly decreasing with width: w1=%d w2=%d w4=%d",
			cycles[1], cycles[2], cycles[4])
	}
}
