package workload

import (
	"runtime"
	"sync/atomic"
	"testing"

	"lowvcc/internal/isa"
	"lowvcc/internal/rng"
	"lowvcc/internal/trace"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(SpecInt(), 5000, 42)
	b := Generate(SpecInt(), 5000, 42)
	if a.Name != b.Name || len(a.Insts) != len(b.Insts) {
		t.Fatal("shape differs between identical generations")
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			t.Fatalf("inst %d differs: %+v vs %+v", i, a.Insts[i], b.Insts[i])
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(SpecInt(), 1000, 1)
	b := Generate(SpecInt(), 1000, 2)
	same := 0
	for i := range a.Insts {
		if a.Insts[i] == b.Insts[i] {
			same++
		}
	}
	if same == len(a.Insts) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGeneratedInstructionsValid(t *testing.T) {
	for _, p := range Profiles() {
		tr := Generate(p, 20000, 7)
		for i, in := range tr.Insts {
			if err := in.Validate(); err != nil {
				t.Fatalf("%s inst %d invalid: %v (%+v)", p.Name, i, err, in)
			}
		}
	}
}

// TestMixApproximatesProfile: generated op frequencies track the profile
// weights (control ops are placed structurally so they drift more).
func TestMixApproximatesProfile(t *testing.T) {
	p := SpecInt()
	tr := Generate(p, 100000, 11)
	s := trace.Summarize(tr)
	loadFrac := float64(s.Loads) / float64(s.Count)
	if loadFrac < 0.15 || loadFrac > 0.30 {
		t.Errorf("load fraction %.3f far from profile weight %.3f", loadFrac, p.Load)
	}
	aluFrac := float64(s.PerOp[isa.OpALU]) / float64(s.Count)
	if aluFrac < 0.35 || aluFrac > 0.65 {
		t.Errorf("alu fraction %.3f far from profile weight %.3f", aluFrac, p.ALU)
	}
	ctrlFrac := float64(s.Ctrl) / float64(s.Count)
	if ctrlFrac < 0.05 || ctrlFrac > 0.30 {
		t.Errorf("control fraction %.3f implausible", ctrlFrac)
	}
}

// TestReturnsMatchCalls: returns never outnumber calls at any prefix (the
// generator only emits a return with a live call stack), so the RSB
// behaviour is well defined.
func TestReturnsMatchCalls(t *testing.T) {
	tr := Generate(Server(), 50000, 3)
	depth := 0
	for i, in := range tr.Insts {
		switch in.Op {
		case isa.OpCall:
			depth++
		case isa.OpReturn:
			depth--
			if depth < -64 { // generator bounds stack at 64
				t.Fatalf("inst %d: unmatched returns (depth %d)", i, depth)
			}
		}
	}
}

// TestReturnTargetsFollowCalls: returns overwhelmingly jump to the
// instruction after their call site (the address an RSB would predict);
// only out-of-range edge cases may deviate.
func TestReturnTargetsFollowCalls(t *testing.T) {
	tr := Generate(Server(), 50000, 5)
	type frame struct{ retPC uint64 }
	var stack []frame
	match, total := 0, 0
	for _, in := range tr.Insts {
		switch in.Op {
		case isa.OpCall:
			stack = append(stack, frame{in.PC + 4})
			if len(stack) > 64 {
				stack = stack[1:]
			}
		case isa.OpReturn:
			if len(stack) == 0 {
				continue
			}
			want := stack[len(stack)-1].retPC
			stack = stack[:len(stack)-1]
			total++
			if in.Addr == want {
				match++
			}
		}
	}
	if total == 0 {
		t.Fatal("no matched returns in server trace")
	}
	if frac := float64(match) / float64(total); frac < 0.99 {
		t.Errorf("only %.1f%% of returns target call+4; RSB would be useless", frac*100)
	}
}

// TestPCContinuity: PCs advance sequentially except across taken control
// transfers, whose targets the next instruction must honour.
func TestPCContinuity(t *testing.T) {
	tr := Generate(SpecInt(), 30000, 9)
	for i := 1; i < len(tr.Insts); i++ {
		prev, cur := tr.Insts[i-1], tr.Insts[i]
		if isa.IsCtrl(prev.Op) && (prev.Taken || prev.Op != isa.OpBranch) {
			if cur.PC != prev.Addr {
				t.Fatalf("inst %d: PC %#x after taken %v to %#x", i, cur.PC, prev.Op, prev.Addr)
			}
		} else if cur.PC != prev.PC+4 {
			t.Fatalf("inst %d: PC %#x does not follow %#x", i, cur.PC, prev.PC)
		}
	}
}

func TestMemoryAddressesInWorkingSet(t *testing.T) {
	p := SpecInt()
	tr := Generate(p, 30000, 13)
	for i, in := range tr.Insts {
		if !isa.IsMem(in.Op) {
			continue
		}
		if in.Addr < dataBase || in.Addr >= dataBase+p.DataWorkingSet {
			t.Fatalf("inst %d: address %#x outside working set", i, in.Addr)
		}
	}
}

// TestDependencyDistances: the mean distance between a consumer and its
// most recent producing instruction tracks DepDistMean, the knob that
// calibrates the 13.2%% IRAW-delay statistic.
func TestDependencyDistances(t *testing.T) {
	p := SpecInt()
	tr := Generate(p, 100000, 17)
	lastWriter := map[isa.Reg]int{}
	var sum, n float64
	for i, in := range tr.Insts {
		for _, src := range []isa.Reg{in.Src1, in.Src2} {
			if src == isa.RegNone {
				continue
			}
			if w, ok := lastWriter[src]; ok {
				d := float64(i - w)
				if d <= 16 { // only near dependencies are meaningful here
					sum += d
					n++
				}
			}
		}
		if in.Dst != isa.RegNone {
			lastWriter[in.Dst] = i
		}
	}
	mean := sum / n
	if mean < 1.2 || mean > 5.0 {
		t.Errorf("near-dependency mean distance %.2f implausible for DepDistMean %.1f", mean, p.DepDistMean)
	}
}

func TestSuiteShape(t *testing.T) {
	suite := Suite(1000, 2)
	if len(suite) != 14 {
		t.Fatalf("suite has %d traces, want 7 profiles x 2 seeds", len(suite))
	}
	names := map[string]bool{}
	for _, tr := range suite {
		if tr.Len() != 1000 {
			t.Fatalf("trace %s has %d insts", tr.Name, tr.Len())
		}
		if names[tr.Name] {
			t.Fatalf("duplicate trace name %s", tr.Name)
		}
		names[tr.Name] = true
	}
}

func TestSuiteMemoized(t *testing.T) {
	a := Suite(500, 1)
	b := Suite(500, 1)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("suite lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace %d regenerated instead of cached", i)
		}
	}
	if cap(a) != len(a) {
		t.Fatalf("cached suite has spare capacity (%d > %d): appends would alias the shared backing array", cap(a), len(a))
	}
	c := Suite(500, 2)
	if len(c) == len(a) && c[0] == a[0] {
		t.Fatal("distinct suite keys share cache entries")
	}
	d := Suite(600, 1)
	if d[0] == a[0] {
		t.Fatal("distinct instruction counts share cache entries")
	}
	if d[0].Len() != 600 {
		t.Fatalf("cached key collision: got %d insts", d[0].Len())
	}
}

func TestProfileByName(t *testing.T) {
	for _, want := range append(Profiles(), MemBound()) {
		got, err := ProfileByName(want.Name)
		if err != nil || got != want {
			t.Fatalf("ProfileByName(%q) = %+v, %v", want.Name, got, err)
		}
	}
	if _, err := ProfileByName("nosuch"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	cases := []Profile{
		{Name: "empty"},
		func() Profile { p := SpecInt(); p.DepDistMean = 0.5; return p }(),
		func() Profile { p := SpecInt(); p.DataWorkingSet = 0; return p }(),
		func() Profile { p := SpecInt(); p.BlockLenMean = 0; return p }(),
		func() Profile { p := SpecInt(); p.Mul = -0.1; return p }(),
		func() Profile { p := SpecInt(); p.DataZipfTheta = -1; return p }(),
	}
	for _, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %q accepted", p.Name)
		}
	}
}

func TestBranchBiasSites(t *testing.T) {
	// Multimedia has almost no flaky branches: its taken-rate per site
	// should be strongly polarized.
	tr := Generate(Multimedia(), 50000, 21)
	taken := map[uint64][2]int{}
	for _, in := range tr.Insts {
		if in.Op != isa.OpBranch {
			continue
		}
		c := taken[in.PC]
		if in.Taken {
			c[0]++
		}
		c[1]++
		taken[in.PC] = c
	}
	polarized, total := 0, 0
	for _, c := range taken {
		if c[1] < 20 {
			continue
		}
		total++
		rate := float64(c[0]) / float64(c[1])
		if rate < 0.15 || rate > 0.85 {
			polarized++
		}
	}
	if total == 0 {
		t.Fatal("no hot branch sites found")
	}
	if frac := float64(polarized) / float64(total); frac < 0.8 {
		t.Errorf("only %.0f%% of multimedia branch sites polarized, want >80%%", frac*100)
	}
}

// BenchmarkLongTrace times sweep-longtrace's set-up: one 300k-instruction
// phased trace.
func BenchmarkLongTrace(b *testing.B) {
	ops := 0
	for b.Loop() {
		ops++
		LongTrace(300000, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops*300000), "ns/inst")
}

// BenchmarkGenerateMemBound times one of engine-membound's set-up traces:
// 150k instructions over a 64 MiB working set. A generator of the same
// profile stays alive throughout, so every trace draws from one shared
// 1M-line Zipf table (its cold build is rng's BenchmarkNewZipf).
func BenchmarkGenerateMemBound(b *testing.B) {
	live := newGenerator(MemBound(), 1)
	ops := 0
	for b.Loop() {
		ops++
		Generate(MemBound(), 150000, 1000)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops*150000), "ns/inst")
	runtime.KeepAlive(live)
}

// BenchmarkGenerateMemBoundPair times engine-membound's set-up: two
// 150k-instruction MemBound traces of two seeds, back to back. A
// collection before each pair, outside the timer, frees the previous
// pair's Zipf table, so each pair builds it once and the second trace
// shares it.
func BenchmarkGenerateMemBoundPair(b *testing.B) {
	ops := 0
	for b.Loop() {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		ops++
		Generate(MemBound(), 150000, 1000)
		Generate(MemBound(), 150000, 1001)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops*2*150000), "ns/inst")
}

// TestPhasedConcatenatesPhases: each phase is exactly the trace Generate
// returns for its profile and seed, in phase order.
func TestPhasedConcatenatesPhases(t *testing.T) {
	phases := []Profile{MemBound(), SpecInt(), Server(), SpecInt()}
	const per = 3000
	got := Phased(phases, per, 9)
	if got.Len() != len(phases)*per {
		t.Fatalf("phased trace has %d insts, want %d", got.Len(), len(phases)*per)
	}
	for i, p := range phases {
		want := Generate(p, per, 9+uint64(i)*7919)
		for j, in := range want.Insts {
			if got.Insts[i*per+j] != in {
				t.Fatalf("phase %d inst %d: %+v, want %+v", i, j, got.Insts[i*per+j], in)
			}
		}
	}
}

// TestPhasedInvalidProfilePanicsInCaller: an invalid phase panics on the
// caller's goroutine, where it can be recovered, not on a generating one
// (which would kill the process).
func TestPhasedInvalidProfilePanicsInCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	short := SpecInt()
	short.DepDistMean = 0.5
	negative := SpecFP()
	negative.Load = -1
	for _, phases := range [][]Profile{
		{short},
		{SpecInt(), short},
		{SpecInt(), Kernel(), negative, Office()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Phased(%d phases) with an invalid one did not panic", len(phases))
				}
			}()
			Phased(phases, 1000, 1)
		}()
	}
}

// TestForEachRepanicsInCaller: a panic in one call reaches the caller once
// every call has returned.
func TestForEachRepanicsInCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var done atomic.Int64
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
		if done.Load() != 99 {
			t.Fatalf("%d calls finished, want the other 99", done.Load())
		}
	}()
	forEach(100, func(i int) {
		if i == 37 {
			panic("boom")
		}
		done.Add(1)
	})
}

// TestRingsMatchSlices: the producer window and the call stack behave as
// the bounded slices they replace (append, drop the oldest past ringLen),
// including past overflow, which generated traces rarely reach.
func TestRingsMatchSlices(t *testing.T) {
	g := newGenerator(SpecInt(), 1)
	r := rng.New(5)
	var calls []uint64
	var producers []isa.Reg
	for i := range 20000 {
		if len(calls) > 0 && r.Bool(0.4) {
			want := calls[len(calls)-1]
			calls = calls[:len(calls)-1]
			if got := g.popCall(); got != want {
				t.Fatalf("step %d: popped %#x, want %#x", i, got, want)
			}
		} else {
			pc := r.Uint64()
			g.pushCall(pc)
			if calls = append(calls, pc); len(calls) > ringLen {
				calls = calls[1:]
			}
		}
		if g.nCalls != len(calls) {
			t.Fatalf("step %d: %d calls held, want %d", i, g.nCalls, len(calls))
		}
		if producers = append(producers, g.pickDst()); len(producers) > ringLen {
			producers = producers[1:]
		}
		for d := 1; d <= len(producers); d++ {
			if got := g.producer(d); got != producers[len(producers)-d] {
				t.Fatalf("step %d: producer at distance %d is %d, want %d", i, d, got, producers[len(producers)-d])
			}
		}
	}
}
