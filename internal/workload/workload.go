// Package workload generates the synthetic instruction traces that stand in
// for the paper's 531 proprietary traces (Spec2006, Spec2000, kernels,
// multimedia, office, server, workstation — Section 5.1).
//
// Each Profile controls exactly the properties the reproduced statistics
// depend on: the operation mix, the producer→consumer register distance
// distribution (which sets the IRAW stall rate), memory footprint and
// locality (cache and TLB behaviour), and branch predictability (BP/RSB
// behaviour).
//
// Generation is deterministic in (profile, n, seed) and independent of
// GOMAXPROCS: testdata/trace_digests.txt pins the bytes, checked on one CPU
// and on all of them. Only independent work runs in parallel, on up to
// GOMAXPROCS goroutines: the phases of Phased and LongTrace (each generated
// by its own generator from its own seed, straight into its own part of
// the output), the traces of a Suite cache miss, and the 1/(i+1)^theta
// terms of a large rng.Zipf table. Every random stream and every running
// sum (the Zipf prefix sum and its normalisation) stays on one goroutine
// in its sequential order, so no floating-point operation changes its
// operands or its order.
//
// A Zipf table depends only on its (lines, θ), not on the seed, so
// generators of one profile share one read-only copy while any of them
// is alive (rng.NewZipf): two MemBound traces of different seeds made
// back to back build its 1M-line data table once, not twice. No table
// outlives its last generator.
package workload

import (
	"fmt"

	"lowvcc/internal/isa"
	"lowvcc/internal/rng"
	"lowvcc/internal/trace"
)

// Profile parameterizes one workload class.
type Profile struct {
	Name string

	// Operation mix weights (normalized internally; Return weight is tied
	// to Call so the RSB stays balanced).
	ALU, Mul, Div, FPAdd, FPMul, FPDiv float64
	Load, Store, Branch, Call, Fence   float64

	// DepDistMean is the mean distance, in dynamic instructions, between a
	// consumer and the producer of its source value. Short distances are
	// what expose immediate-read-after-write hazards in the register file.
	DepDistMean float64
	// UseRecentProb is the probability that a source operand names a recent
	// producer at all (the rest read long-lived values: stack pointers,
	// globals, loop bounds).
	UseRecentProb float64
	// Src2Prob is the probability an instruction has a second register
	// source.
	Src2Prob float64

	// DataWorkingSet is the data footprint in bytes; DataZipfTheta skews
	// line popularity (0 = uniform). StrideFrac of memory accesses stream
	// sequentially through StrideStreams independent pointers.
	DataWorkingSet uint64
	DataZipfTheta  float64
	StrideFrac     float64
	StrideStreams  int

	// CodeFootprint is the static code size in bytes; BlockLenMean the mean
	// basic-block length.
	CodeFootprint uint64
	BlockLenMean  float64

	// TakenBias is the taken probability of flaky branch sites;
	// FlakyBranchFrac is the fraction of branch sites whose outcome is
	// random each visit (the rest are strongly biased and predictable).
	TakenBias       float64
	FlakyBranchFrac float64
}

// Validate reports structural problems in a profile.
func (p Profile) Validate() error {
	total := p.ALU + p.Mul + p.Div + p.FPAdd + p.FPMul + p.FPDiv +
		p.Load + p.Store + p.Branch + p.Call + p.Fence
	if total <= 0 {
		return fmt.Errorf("workload %q: empty op mix", p.Name)
	}
	if p.DepDistMean < 1 {
		return fmt.Errorf("workload %q: DepDistMean %v < 1", p.Name, p.DepDistMean)
	}
	if p.DataWorkingSet == 0 || p.CodeFootprint == 0 {
		return fmt.Errorf("workload %q: zero footprint", p.Name)
	}
	if p.BlockLenMean < 1 {
		return fmt.Errorf("workload %q: BlockLenMean %v < 1", p.Name, p.BlockLenMean)
	}
	for _, w := range p.weights() {
		if w.w < 0 {
			return fmt.Errorf("workload %q: negative weight %v for %v", p.Name, w.w, w.op)
		}
	}
	if p.DataZipfTheta < 0 {
		return fmt.Errorf("workload %q: DataZipfTheta %v < 0", p.Name, p.DataZipfTheta)
	}
	return nil
}

const (
	instBytes   = 4  // modelled instruction size
	lineBytes   = 64 // cache line for footprint math
	blockStride = 32 // instruction slots reserved per static basic block
	codeBase    = 0x0040_0000
	dataBase    = 0x1000_0000

	// scratchRegs registers are allocated to computation results; the
	// remaining architectural registers hold long-lived values (stack
	// pointer, globals, loop bounds) that are read often but written
	// rarely, as in real code.
	scratchRegs = 12
	// longLivedSrcProb is how often a non-recent source reads one of the
	// long-lived registers instead of a random scratch register.
	longLivedSrcProb = 0.45
	// minFunctionInsts is the shortest function body the generator emits;
	// real prologues/epilogues keep call->return pairs far enough apart
	// that the RSB's stabilization window is never violated.
	minFunctionInsts = 8
)

// generator carries the evolving state of one trace generation.
type generator struct {
	p   Profile
	src *rng.Source

	ops    []isa.Op // op classes, cumulative-weighted selection
	cum    []float64
	depGeo rng.Geometric // dependency distance

	// producers is a ring of the destination registers of the last
	// nProducers register-writing instructions; prodHead is the index of
	// the next write.
	producers  [ringLen]isa.Reg
	prodHead   int
	nProducers int

	// code structure: the static program is a set of basic blocks at fixed
	// addresses with fixed lengths, so branch sites are stable and the
	// branch predictor sees a meaningful static program.
	blockStarts []uint64
	blockLens   []int
	blockZipf   *rng.Zipf
	pc          uint64
	blockLeft   int
	siteBias    map[uint64]uint8 // branch PC -> 0 taken-biased, 1 nt-biased, 2 flaky

	// memory structure
	dataZipf *rng.Zipf
	streams  []uint64

	// call stack for matched returns, a ring holding the newest nCalls
	// return addresses (a push onto a full ring forgets the oldest);
	// sinceCall enforces a minimum function length so call->return never
	// happens within a couple of cycles (the paper: "we did not find any
	// short function meeting those conditions", Section 4.5).
	callStack [ringLen]uint64
	callTop   int // index of the next push
	nCalls    int
	sinceCall int
}

// ringLen bounds both the producer window and the call stack.
const ringLen = 64

// opWeight is one op class's weight in a profile's mix.
type opWeight struct {
	op isa.Op
	w  float64
}

// weights lists the profile's op mix in selection order.
func (p Profile) weights() []opWeight {
	return []opWeight{
		{isa.OpALU, p.ALU}, {isa.OpMul, p.Mul}, {isa.OpDiv, p.Div},
		{isa.OpFPAdd, p.FPAdd}, {isa.OpFPMul, p.FPMul}, {isa.OpFPDiv, p.FPDiv},
		{isa.OpLoad, p.Load}, {isa.OpStore, p.Store},
		{isa.OpBranch, p.Branch}, {isa.OpCall, p.Call}, {isa.OpFence, p.Fence},
	}
}

func newGenerator(p Profile, seed uint64) *generator {
	g := &generator{p: p, src: rng.New(seed)}
	weights := p.weights()
	total := 0.0
	for _, w := range weights {
		total += w.w
	}
	acc := 0.0
	for _, w := range weights {
		if w.w == 0 {
			continue
		}
		acc += w.w / total
		g.ops = append(g.ops, w.op)
		g.cum = append(g.cum, acc)
	}
	g.cum[len(g.cum)-1] = 1

	g.depGeo = rng.NewGeometric(g.src, 1/p.DepDistMean)

	nBlocks := int(p.CodeFootprint / (instBytes * blockStride))
	if nBlocks < 4 {
		nBlocks = 4
	}
	g.blockStarts = make([]uint64, nBlocks)
	g.blockLens = make([]int, nBlocks)
	blockLen := rng.NewGeometric(g.src, 1/p.BlockLenMean)
	for i := range g.blockStarts {
		g.blockStarts[i] = codeBase + uint64(i)*instBytes*blockStride
		l := blockLen.Next()
		if l > blockStride {
			l = blockStride
		}
		if l < 2 {
			l = 2 // room for at least one body op and the terminator
		}
		g.blockLens[i] = l
	}
	g.blockZipf = rng.NewZipf(g.src.Fork(), nBlocks, 1.1)
	g.siteBias = make(map[uint64]uint8)

	nLines := int(p.DataWorkingSet / lineBytes)
	if nLines < 1 {
		nLines = 1
	}
	g.dataZipf = rng.NewZipf(g.src.Fork(), nLines, p.DataZipfTheta)

	streams := p.StrideStreams
	if streams < 1 {
		streams = 1
	}
	g.streams = make([]uint64, streams)
	for i := range g.streams {
		g.streams[i] = dataBase + g.src.Uint64n(p.DataWorkingSet)&^7
	}

	g.enterBlock()
	return g
}

// enterBlock jumps to a popularity-weighted block start.
func (g *generator) enterBlock() {
	idx := g.blockZipf.Next()
	g.pc = g.blockStarts[idx]
	g.blockLeft = g.blockLens[idx]
}

// enterBlockAt resumes execution at an arbitrary PC (a return target or a
// branch fall-through), computing how much straight-line code remains. A PC
// past its block's terminator (the usual case for a return, since calls
// terminate blocks) executes the remainder of the block's address slot as a
// continuation, so return targets are honoured exactly and the RSB sees
// resolvable addresses.
func (g *generator) enterBlockAt(pc uint64) {
	idx := int((pc - codeBase) / (instBytes * blockStride))
	if pc < codeBase || idx < 0 || idx >= len(g.blockStarts) {
		// Off the end of the laid-out region (a fall-through past the last
		// block): execute a short straight-line continuation there; its
		// terminator jumps back into the region. PCs stay continuous.
		g.pc = pc
		g.blockLeft = 4
		return
	}
	off := int((pc - g.blockStarts[idx]) / instBytes)
	left := g.blockLens[idx] - off
	if left < 1 {
		left = blockStride - off
		if left < 1 {
			idx = (idx + 1) % len(g.blockStarts)
			g.pc = g.blockStarts[idx]
			g.blockLeft = g.blockLens[idx]
			return
		}
	}
	g.pc = pc
	g.blockLeft = left
}

// pickSrc selects a source register: usually the destination of a recent
// producer at a geometric distance; otherwise a long-lived register (stack
// pointer, global) or a random scratch register whose producer is far in
// the past.
func (g *generator) pickSrc() isa.Reg {
	if g.nProducers > 0 && g.src.Bool(g.p.UseRecentProb) {
		return g.producer(min(g.depGeo.Next(), g.nProducers))
	}
	if g.src.Bool(longLivedSrcProb) {
		return isa.Reg(scratchRegs + g.src.Intn(isa.NumRegs-scratchRegs))
	}
	return isa.Reg(g.src.Intn(scratchRegs))
}

// producer returns the destination of the d-th most recent producer,
// 1 <= d <= nProducers.
func (g *generator) producer(d int) isa.Reg {
	return g.producers[(g.prodHead-d+ringLen)%ringLen]
}

func (g *generator) pickDst() isa.Reg {
	r := isa.Reg(g.src.Intn(scratchRegs))
	g.producers[g.prodHead] = r
	g.prodHead = (g.prodHead + 1) % ringLen
	g.nProducers = min(g.nProducers+1, ringLen)
	return r
}

// pushCall pushes a return address, forgetting the oldest when the stack
// already holds ringLen.
func (g *generator) pushCall(ret uint64) {
	g.callStack[g.callTop] = ret
	g.callTop = (g.callTop + 1) % ringLen
	g.nCalls = min(g.nCalls+1, ringLen)
}

// popCall pops the newest return address; the stack must not be empty.
func (g *generator) popCall() uint64 {
	g.callTop = (g.callTop - 1 + ringLen) % ringLen
	g.nCalls--
	return g.callStack[g.callTop]
}

func (g *generator) memAddr() uint64 {
	if g.src.Bool(g.p.StrideFrac) {
		i := g.src.Intn(len(g.streams))
		a := g.streams[i]
		g.streams[i] += 8
		if g.streams[i] >= dataBase+g.p.DataWorkingSet {
			g.streams[i] = dataBase
		}
		return a
	}
	line := uint64(g.dataZipf.Next())
	off := g.src.Uint64n(lineBytes) &^ 7
	return dataBase + line*lineBytes + off
}

func (g *generator) branchOutcome(pc uint64) bool {
	bias, ok := g.siteBias[pc]
	if !ok {
		switch {
		case g.src.Bool(g.p.FlakyBranchFrac):
			bias = 2
		case g.src.Bool(0.6):
			bias = 0 // taken-biased (loop back-edges dominate)
		default:
			bias = 1
		}
		g.siteBias[pc] = bias
	}
	switch bias {
	case 0:
		return !g.src.Bool(0.03) // strongly taken
	case 1:
		return g.src.Bool(0.03) // strongly not-taken
	default:
		return g.src.Bool(g.p.TakenBias)
	}
}

// next produces the next instruction.
func (g *generator) next() trace.Inst {
	pc := g.pc
	g.pc += instBytes
	g.sinceCall++

	var op isa.Op
	if g.blockLeft <= 1 {
		// Block terminator: control transfer (or a matched return).
		switch {
		case g.nCalls > 0 && g.sinceCall >= minFunctionInsts && g.src.Bool(0.5):
			op = isa.OpReturn
		case g.src.Bool(g.callFrac()):
			op = isa.OpCall
		default:
			op = isa.OpBranch
		}
	} else {
		op = g.pickOp()
		// Control ops only at block ends; re-roll the few that collide.
		for isa.IsCtrl(op) && g.blockLeft > 1 {
			op = g.pickOp()
		}
	}
	g.blockLeft--

	in := trace.Inst{PC: pc, Op: op, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	switch op {
	case isa.OpNop, isa.OpFence:
		// no operands
	case isa.OpLoad:
		in.Src1 = g.pickSrc() // address base
		in.Addr = g.memAddr()
		in.Size = 8
		in.Dst = g.pickDst()
	case isa.OpStore:
		in.Src1 = g.pickSrc() // address base
		in.Src2 = g.pickSrc() // stored value
		in.Addr = g.memAddr()
		in.Size = 8
	case isa.OpBranch:
		in.Src1 = g.pickSrc()
		in.Taken = g.branchOutcome(pc)
		if in.Taken {
			g.enterBlock()
			in.Addr = g.pc
		} else {
			g.enterBlockAt(g.pc)
		}
	case isa.OpCall:
		g.pushCall(g.pc)
		g.sinceCall = 0
		g.enterBlock()
		in.Addr = g.pc
		in.Taken = true
	case isa.OpReturn:
		g.enterBlockAt(g.popCall())
		in.Addr = g.pc
		in.Taken = true
	default: // register-computing ops
		in.Src1 = g.pickSrc()
		if g.src.Bool(g.p.Src2Prob) {
			in.Src2 = g.pickSrc()
		}
		in.Dst = g.pickDst()
	}
	return in
}

func (g *generator) pickOp() isa.Op {
	u := g.src.Float64()
	for i, c := range g.cum {
		if u < c {
			return g.ops[i]
		}
	}
	return g.ops[len(g.ops)-1]
}

func (g *generator) callFrac() float64 {
	ctrl := g.p.Branch + g.p.Call
	if ctrl <= 0 {
		return 0
	}
	return g.p.Call / ctrl
}

// Generate produces a deterministic trace of n instructions for profile p
// and the given seed. It panics on invalid profiles (a programming error in
// the caller's experiment setup).
func Generate(p Profile, n int, seed uint64) *trace.Trace {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := newGenerator(p, seed)
	t := &trace.Trace{
		Name:  fmt.Sprintf("%s-%d", p.Name, seed),
		Insts: make([]trace.Inst, n),
	}
	g.fill(t.Insts)
	return t
}

// fill writes the generator's next len(dst) instructions into dst.
func (g *generator) fill(dst []trace.Inst) {
	for i := range dst {
		dst[i] = g.next()
	}
}
