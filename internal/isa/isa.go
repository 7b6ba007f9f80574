// Package isa defines the instruction-set abstraction the trace-driven
// simulator operates on: operation classes with execution latencies, and the
// logical register file visible to the issue logic.
//
// The paper's core is an Intel Silverthorne (in-order x86); traces drive its
// pipeline at the micro-op level. We model the op classes that matter for
// IRAW behaviour — integer/FP ALU ops of several latencies, long-latency
// dividers (the scoreboard's long-latency path), loads/stores (DL0 and the
// Store Table), and control flow (BP and RSB).
package isa

import "fmt"

// Op is an operation class.
type Op uint8

// Operation classes. The zero value is OpNop so that zeroed trace records
// are harmless.
const (
	OpNop    Op = iota
	OpALU       // single-cycle integer op
	OpMul       // pipelined integer multiply
	OpDiv       // long-latency integer divide (separate-scoreboard path)
	OpFPAdd     // pipelined FP add
	OpFPMul     // pipelined FP multiply
	OpFPDiv     // long-latency FP divide
	OpLoad      // memory load (latency depends on the cache hierarchy)
	OpStore     // memory store (commits to DL0)
	OpBranch    // conditional branch (uses BP)
	OpCall      // call (pushes RSB)
	OpReturn    // return (pops RSB)
	OpFence     // serializing op: drains the pipeline (IQ NOOP injection)
	numOps
)

// NumOps is the number of operation classes.
const NumOps = int(numOps)

var opNames = [NumOps]string{
	"nop", "alu", "mul", "div", "fpadd", "fpmul", "fpdiv",
	"load", "store", "branch", "call", "return", "fence",
}

// String implements fmt.Stringer.
func (op Op) String() string {
	if int(op) < NumOps {
		return opNames[op]
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// Valid reports whether op is a defined operation class.
func (op Op) Valid() bool { return op < numOps }

// execLatency is the execution latency in cycles of each class (a DL0 hit
// for loads; misses extend it dynamically). Values follow the low-power
// in-order design point: short integer pipes, modest FP.
var execLatency = [NumOps]int{
	1,  // nop
	1,  // alu
	4,  // mul
	12, // div
	3,  // fpadd
	4,  // fpmul
	20, // fpdiv
	2,  // load (hit)
	1,  // store
	1,  // branch
	1,  // call
	1,  // return
	1,  // fence
}

// Latency returns the base execution latency of op in cycles.
func Latency(op Op) int {
	if !op.Valid() {
		panic(fmt.Sprintf("isa: invalid op %d", uint8(op)))
	}
	return execLatency[op]
}

// IsMem reports whether op accesses the data cache.
func IsMem(op Op) bool { return op == OpLoad || op == OpStore }

// IsCtrl reports whether op redirects control flow.
func IsCtrl(op Op) bool { return op == OpBranch || op == OpCall || op == OpReturn }

// WritesReg reports whether the class produces a register result.
func WritesReg(op Op) bool {
	switch op {
	case OpALU, OpMul, OpDiv, OpFPAdd, OpFPMul, OpFPDiv, OpLoad:
		return true
	}
	return false
}

// Reg is a logical register index. The issue logic tracks readiness per
// logical register in a scoreboard indexed by Reg.
type Reg uint8

// RegNone marks an absent operand.
const RegNone Reg = 0xFF

// NumRegs is the number of logical registers the scoreboard tracks (the
// architectural integer+FP set visible to an in-order x86 core's renamer-
// free issue logic).
const NumRegs = 16

// Valid reports whether r names a register (not RegNone) in range.
func (r Reg) Valid() bool { return r < NumRegs }

// String implements fmt.Stringer.
func (r Reg) String() string {
	if r == RegNone {
		return "r-"
	}
	return fmt.Sprintf("r%d", uint8(r))
}
