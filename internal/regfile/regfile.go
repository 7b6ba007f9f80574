// Package regfile implements the register file of the in-order core on top
// of the sram substrate, together with the bypass network abstraction and
// the Extra-Bypass comparison design of Section 2.2.
//
// Timing contract with the issue logic (mirrors the scoreboard patterns):
// a producer issued at cycle c with execution latency L and `bypass` bypass
// levels writes the RF at cycle w = c+L+bypass. Consumers issuing during
// [c+L, c+L+bypass-1] take the value from the bypass network; consumers
// issuing at cycle s >= c+L+bypass read the RF at s+1. Under IRAW clocking
// the write is interrupted and the entry stabilizes through w+N, so reads
// at [w+1, w+N] — i.e. consumers issuing in the scoreboard's bubble — would
// hit a stabilizing entry.
package regfile

import (
	"fmt"

	"lowvcc/internal/isa"
	"lowvcc/internal/sram"
)

// Stats counts register-file activity.
type Stats struct {
	Reads       uint64
	Writes      uint64
	BypassReads uint64
	// ViolationReads counts reads of stabilizing entries (unsafe mode).
	ViolationReads uint64
	// IntegrityErrors counts clean reads whose value mismatched the oracle
	// (a simulator self-check; nonzero means a modelling bug).
	IntegrityErrors uint64
	// PortContentionCycles counts write-port waits (Extra-Bypass designs
	// pipeline writes over several cycles, serializing the port).
	PortContentionCycles uint64
}

// File is the architectural register file. Not goroutine-safe.
type File struct {
	arr *sram.Array
	// values is the oracle: the architecturally correct value of each
	// register, updated in issue order.
	values [isa.NumRegs]uint64

	interrupted bool
	n           int

	// writePipeCycles > 1 models the Extra-Bypass design: each write holds
	// the port for that many cycles.
	writePipeCycles int
	portFreeAt      int64

	stats Stats
}

// New returns a register file with all registers zero and stable.
func New() *File {
	return &File{
		arr: sram.MustNew(sram.Config{
			Name:          "RF",
			Entries:       isa.NumRegs,
			EntriesPerSet: 1,
		}),
		writePipeCycles: 1,
	}
}

// SetIRAW configures write interruption (IRAW clocking) with N
// stabilization cycles.
func (f *File) SetIRAW(interrupted bool, n int) {
	if interrupted && n < 1 {
		panic("regfile: interrupted writes need n >= 1")
	}
	f.interrupted = interrupted
	f.n = n
}

// SetWritePipeline configures the Extra-Bypass write pipelining depth
// (1 = conventional single-cycle port occupancy).
func (f *File) SetWritePipeline(cycles int) {
	if cycles < 1 {
		panic("regfile: write pipeline needs cycles >= 1")
	}
	f.writePipeCycles = cycles
}

// Stats returns a snapshot of the counters.
func (f *File) Stats() Stats { return f.stats }

// Array exposes the backing sram array (violation counters for tests).
func (f *File) Array() *sram.Array { return f.arr }

// WritePortWait returns how many cycles a write starting at `cycle` would
// wait for the write port (always 0 for single-cycle writes). The issue
// stage consults this to model Extra-Bypass write-port contention.
func (f *File) WritePortWait(cycle int64) int64 {
	if f.writePipeCycles == 1 || cycle > f.portFreeAt {
		return 0
	}
	return f.portFreeAt + 1 - cycle
}

// Write commits value to r at the given cycle. The caller must have
// resolved port contention via WritePortWait; Write panics on a busy port
// (a pipeline sequencing bug, not a runtime condition).
func (f *File) Write(cycle int64, r isa.Reg, value uint64) {
	if !r.Valid() {
		panic(fmt.Sprintf("regfile: write to %v", r))
	}
	if f.writePipeCycles > 1 {
		if cycle <= f.portFreeAt {
			panic("regfile: write port busy; caller must wait WritePortWait")
		}
		f.portFreeAt = cycle + int64(f.writePipeCycles) - 1
	}
	f.arr.Write(cycle, int(r), value, f.interrupted, f.n)
	f.values[r] = value
	f.stats.Writes++
}

// NotePortContention charges write-port wait cycles to the statistics.
func (f *File) NotePortContention(cycles int64) {
	f.stats.PortContentionCycles += uint64(cycles)
}

// Read fetches r from the register file at the given cycle. ok reports a
// clean read; a read inside a stabilization window returns scrambled data
// (and destroys the entry) exactly as the sram substrate dictates.
func (f *File) Read(cycle int64, r isa.Reg) (value uint64, ok bool) {
	if !r.Valid() {
		panic(fmt.Sprintf("regfile: read of %v", r))
	}
	value, ok = f.arr.Read(cycle, int(r))
	f.stats.Reads++
	if !ok {
		f.stats.ViolationReads++
		return value, false
	}
	if value != f.values[r] {
		f.stats.IntegrityErrors++
	}
	return value, true
}

// ReadBypass returns r's architectural value through the bypass network
// (no SRAM access, always safe).
func (f *File) ReadBypass(r isa.Reg) uint64 {
	if !r.Valid() {
		panic(fmt.Sprintf("regfile: bypass read of %v", r))
	}
	f.stats.BypassReads++
	return f.values[r]
}

// Stable reports whether r is readable at the given cycle.
func (f *File) Stable(cycle int64, r isa.Reg) bool {
	return f.arr.Stable(cycle, int(r))
}

// TotalBits returns the RF storage for area accounting.
func (f *File) TotalBits() int { return f.arr.TotalBits() }
