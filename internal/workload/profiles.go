package workload

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lowvcc/internal/trace"
)

// The standard profiles mirror the application classes of the paper's
// workload ("Spec2006, Spec2000, kernels, multimedia, office, server,
// workstation", Section 5.1). Mixes and dependency distances follow the
// usual characterization of these classes on low-power in-order cores; the
// suite as a whole is calibrated so the RF IRAW-delay rate lands near the
// paper's 13.2%.

// SpecInt models integer SPEC-like compute: ALU-dense, short dependency
// chains, branchy, modest working set.
func SpecInt() Profile {
	return Profile{
		Name: "specint",
		ALU:  0.52, Mul: 0.02, Div: 0.002,
		Load: 0.22, Store: 0.09, Branch: 0.13, Call: 0.01,
		DepDistMean: 2.7, UseRecentProb: 0.80, Src2Prob: 0.45,
		DataWorkingSet: 256 << 10, DataZipfTheta: 1.2,
		StrideFrac: 0.35, StrideStreams: 4,
		CodeFootprint: 24 << 10, BlockLenMean: 8,
		TakenBias: 0.5, FlakyBranchFrac: 0.05,
	}
}

// SpecFP models floating-point SPEC-like compute: FP pipes busy, longer
// latencies, strided array traversal, predictable loops.
func SpecFP() Profile {
	return Profile{
		Name: "specfp",
		ALU:  0.28, Mul: 0.02, FPAdd: 0.16, FPMul: 0.12, FPDiv: 0.006,
		Load: 0.26, Store: 0.10, Branch: 0.05, Call: 0.005,
		DepDistMean: 3.1, UseRecentProb: 0.80, Src2Prob: 0.60,
		DataWorkingSet: 384 << 10, DataZipfTheta: 0.5,
		StrideFrac: 0.75, StrideStreams: 6,
		CodeFootprint: 16 << 10, BlockLenMean: 14,
		TakenBias: 0.5, FlakyBranchFrac: 0.02,
	}
}

// Kernel models OS-kernel code paths: short blocks, fences, irregular data.
func Kernel() Profile {
	return Profile{
		Name: "kernel",
		ALU:  0.48, Mul: 0.01,
		Load: 0.24, Store: 0.11, Branch: 0.13, Call: 0.02, Fence: 0.008,
		DepDistMean: 2.6, UseRecentProb: 0.75, Src2Prob: 0.4,
		DataWorkingSet: 192 << 10, DataZipfTheta: 1.2,
		StrideFrac: 0.2, StrideStreams: 2,
		CodeFootprint: 40 << 10, BlockLenMean: 6,
		TakenBias: 0.45, FlakyBranchFrac: 0.08,
	}
}

// Multimedia models media kernels: multiply-dense, streaming, predictable.
func Multimedia() Profile {
	return Profile{
		Name: "multimedia",
		ALU:  0.38, Mul: 0.12, FPAdd: 0.05, FPMul: 0.04,
		Load: 0.24, Store: 0.11, Branch: 0.055, Call: 0.003,
		DepDistMean: 2.9, UseRecentProb: 0.84, Src2Prob: 0.65,
		DataWorkingSet: 320 << 10, DataZipfTheta: 0.4,
		StrideFrac: 0.85, StrideStreams: 8,
		CodeFootprint: 12 << 10, BlockLenMean: 16,
		TakenBias: 0.5, FlakyBranchFrac: 0.015,
	}
}

// Office models interactive productivity code: branchy, large code
// footprint, cold data.
func Office() Profile {
	return Profile{
		Name: "office",
		ALU:  0.46, Mul: 0.015,
		Load: 0.25, Store: 0.10, Branch: 0.14, Call: 0.02,
		DepDistMean: 2.8, UseRecentProb: 0.75, Src2Prob: 0.4,
		DataWorkingSet: 512 << 10, DataZipfTheta: 1.25,
		StrideFrac: 0.25, StrideStreams: 3,
		CodeFootprint: 64 << 10, BlockLenMean: 7,
		TakenBias: 0.5, FlakyBranchFrac: 0.07,
	}
}

// Server models server workloads: big data and code footprints, calls,
// pointer-dependent loads.
func Server() Profile {
	return Profile{
		Name: "server",
		ALU:  0.42, Mul: 0.01,
		Load: 0.28, Store: 0.12, Branch: 0.12, Call: 0.03, Fence: 0.003,
		DepDistMean: 2.5, UseRecentProb: 0.79, Src2Prob: 0.35,
		DataWorkingSet: 1 << 20, DataZipfTheta: 1.15,
		StrideFrac: 0.1, StrideStreams: 2,
		CodeFootprint: 96 << 10, BlockLenMean: 7,
		TakenBias: 0.5, FlakyBranchFrac: 0.09,
	}
}

// Workstation models engineering/workstation codes: mixed int/FP.
func Workstation() Profile {
	return Profile{
		Name: "workstation",
		ALU:  0.36, Mul: 0.03, FPAdd: 0.08, FPMul: 0.06, FPDiv: 0.003,
		Load: 0.26, Store: 0.10, Branch: 0.09, Call: 0.015,
		DepDistMean: 2.9, UseRecentProb: 0.80, Src2Prob: 0.5,
		DataWorkingSet: 448 << 10, DataZipfTheta: 1.0,
		StrideFrac: 0.5, StrideStreams: 4,
		CodeFootprint: 48 << 10, BlockLenMean: 10,
		TakenBias: 0.5, FlakyBranchFrac: 0.04,
	}
}

// MemBound is an extra stress profile (not part of the paper's mix) used by
// examples and memory-sensitivity studies: cache-hostile streaming.
func MemBound() Profile {
	return Profile{
		Name: "membound",
		ALU:  0.30,
		Load: 0.40, Store: 0.16, Branch: 0.13, Call: 0.005,
		DepDistMean: 1.6, UseRecentProb: 0.9, Src2Prob: 0.3,
		DataWorkingSet: 64 << 20, DataZipfTheta: 0.05,
		StrideFrac: 0.15, StrideStreams: 2,
		CodeFootprint: 24 << 10, BlockLenMean: 7,
		TakenBias: 0.5, FlakyBranchFrac: 0.06,
	}
}

// Profiles returns the seven paper-aligned workload classes.
func Profiles() []Profile {
	return []Profile{
		SpecInt(), SpecFP(), Kernel(), Multimedia(),
		Office(), Server(), Workstation(),
	}
}

// ProfileByName returns the profile called name: one of Profiles() or
// MemBound().
func ProfileByName(name string) (Profile, error) {
	for _, p := range append(Profiles(), MemBound()) {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// Phased concatenates one trace per profile phase — an application that
// moves through distinct behaviours (compute burst, memory sweep, branchy
// control) as one trace. Phase i is
// Generate(phases[i], instsPerPhase, seed+i*7919), generated in parallel
// straight into its place in the output. It panics on an invalid profile,
// on the caller's goroutine.
func Phased(phases []Profile, instsPerPhase int, seed uint64) *trace.Trace {
	if len(phases) == 0 {
		panic("workload: Phased needs at least one phase")
	}
	for _, p := range phases {
		if err := p.Validate(); err != nil {
			panic(err)
		}
	}
	out := &trace.Trace{Name: "phased", Insts: make([]trace.Inst, len(phases)*instsPerPhase)}
	forEach(len(phases), func(i int) {
		g := newGenerator(phases[i], seed+uint64(i)*7919)
		g.fill(out.Insts[i*instsPerPhase : (i+1)*instsPerPhase])
	})
	return out
}

// LongTrace generates one long mixed-behaviour trace of about n
// instructions — the sharded-execution stand-in for the paper's
// 10M-instruction production traces. The paper-aligned classes rotate in
// fixed phases, so the trace moves through compute bursts, memory sweeps
// and branchy control the way a production workload does; generation is
// deterministic in (n, seed). For n below one phase per class it degrades
// to a single SpecInt trace.
func LongTrace(n int, seed uint64) *trace.Trace {
	profiles := Profiles()
	perPhase := n / len(profiles)
	if perPhase < 1 {
		return Generate(SpecInt(), n, seed)
	}
	out := Phased(profiles, perPhase, seed)
	out.Name = fmt.Sprintf("long-%d-%d", n, seed)
	return out
}

// suiteCache memoizes Suite: generation is deterministic in (n,
// seedsPerProfile), and every figure, benchmark and test materializes the
// same few sizes, so regenerating the whole suite per call is pure waste.
var suiteCache sync.Map // suiteKey -> []*trace.Trace

type suiteKey struct{ n, seedsPerProfile int }

// Suite returns the standard evaluation suite: seedsPerProfile traces of
// n instructions for each paper-aligned profile. The paper uses 531 traces
// of 10M instructions; the default experiments scale this down while
// keeping every class represented.
//
// Suites are cached per (n, seedsPerProfile): repeated calls return the
// same shared traces. Callers must treat them as read-only — every
// consumer in the tree does (the core reads traces, and Reschedule builds
// new ones); a caller that needs to mutate instructions must copy first.
func Suite(n, seedsPerProfile int) []*trace.Trace {
	key := suiteKey{n, seedsPerProfile}
	if v, ok := suiteCache.Load(key); ok {
		return v.([]*trace.Trace)
	}
	profiles := Profiles()
	// The traces are independent, so a cache miss generates them in
	// parallel. The exact length leaves no spare capacity: a caller
	// appending to the returned slice copies instead of writing into the
	// shared backing array.
	out := make([]*trace.Trace, len(profiles)*max(seedsPerProfile, 0))
	forEach(len(out), func(i int) {
		pi, s := i/seedsPerProfile, i%seedsPerProfile
		out[i] = Generate(profiles[pi], n, uint64(pi)*1000+uint64(s)+1)
	})
	// Two racing generators produce identical suites; keep whichever one
	// published first so all callers share one copy.
	v, _ := suiteCache.LoadOrStore(key, out)
	return v.([]*trace.Trace)
}

// forEach calls fn(i) for every i in [0, n) on up to GOMAXPROCS
// goroutines. The calls must be independent. A panic in fn is re-raised on
// the caller's goroutine once every call has returned.
func forEach(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
				}
			}()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
}
