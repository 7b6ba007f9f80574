// Package sram provides the SRAM substrate of the reproduction: a physical
// 8-T bitcell model and data-carrying arrays with the write-interruption and
// stabilization semantics that IRAW avoidance relies on (Section 3.2).
//
// Two levels of abstraction live here:
//
//   - Bitcell models one storage node's voltage swing: driven writes, early
//     interruption, self-stabilization, relaxation back to the old value if
//     interrupted too early, and read-disturb destruction of half-flipped
//     cells. It grounds the cycle-level rules in the circuit behaviour the
//     paper describes.
//   - Array models a whole SRAM block at cycle granularity: every entry
//     holds one 64-bit word (both users, the caches' line signatures and
//     the register file, store exactly that) and tracks the cycle from
//     which it is readable; reading a set that holds a
//     stabilizing entry destroys that entry's contents (the paper's
//     set-associative hazard: "all entries in the corresponding set are
//     accessed simultaneously").
package sram

import "math"

// Swing thresholds of the bitcell model, as fractions of full swing.
const (
	// ReadableSwing is how much of its swing a node must have completed to
	// be read reliably; the paper measures delays at 80% of swing.
	ReadableSwing = 0.80
	// FlipPoint is the metastable threshold: a node driven past it keeps
	// flipping toward the new value on its own after the wordline drops;
	// below it the cell relaxes back to the old value.
	FlipPoint = 0.50
)

// Bitcell is a single storage cell. The zero value holds value false, fully
// settled.
type Bitcell struct {
	// stored is the value toward which the node currently converges.
	stored bool
	// swing is the completed fraction of the transition toward `stored`;
	// 1 means fully settled, smaller values mean mid-flip.
	swing float64
}

// NewBitcell returns a settled cell holding v.
func NewBitcell(v bool) *Bitcell {
	return &Bitcell{stored: v, swing: 1}
}

// Drive applies a write of value v with the wordline active for `active`
// time out of the `full` time a complete write needs (both in any common
// unit). A complete write (active >= full) settles the cell. An interrupted
// write leaves the node at a partial swing: past FlipPoint the cell is
// committed to the new value and will stabilize by itself; otherwise it
// relaxes back and the write is lost.
//
// Drive returns whether the cell is committed to v after the wordline drops.
func (b *Bitcell) Drive(v bool, active, full float64) bool {
	if full <= 0 {
		panic("sram: Drive with non-positive full write time")
	}
	if v == b.stored && b.swing >= 1 {
		return true // writing the stored value is a no-op
	}
	// Progress toward the new value is modelled as a first-order settling:
	// swing = 1 - exp(-k * t/full), with k chosen so a full write reaches
	// ReadableSwing plus design margin (settled) exactly at t == full.
	k := -math.Log(1 - ReadableSwing)
	progress := 1 - math.Exp(-k*active/full)
	if active >= full {
		b.stored = v
		b.swing = 1
		return true
	}
	if progress >= FlipPoint {
		// Committed: the cell finishes the flip unaided.
		b.stored = v
		b.swing = progress
		return true
	}
	// Interrupted too early: relaxes back to the old value, write lost.
	return false
}

// Stabilize lets the cell settle unaided for dt time, where `full` is the
// full-write time scale. Self-stabilization is slower than a driven write
// (no help from the bitlines); the model halves the settling rate.
func (b *Bitcell) Stabilize(dt, full float64) {
	if b.swing >= 1 {
		return
	}
	k := -math.Log(1-ReadableSwing) / 2
	b.swing = 1 - (1-b.swing)*math.Exp(-k*dt/full)
	if b.swing >= ReadableSwing {
		b.swing = 1
	}
}

// Readable reports whether a read would observe the stored value reliably.
func (b *Bitcell) Readable() bool { return b.swing >= ReadableSwing }

// Read returns the stored value and whether the read was reliable. Reading
// a cell mid-flip disturbs the node: the model corrupts the cell to the
// complement and marks it settled there, reflecting the paper's "data
// retrieved could be wrong and bitcell contents could be destroyed".
func (b *Bitcell) Read() (v, ok bool) {
	if b.Readable() {
		return b.stored, true
	}
	b.stored = !b.stored
	b.swing = 1
	return b.stored, false
}

// Value returns the settled value without read-disturb side effects (a
// test/debug observer, not a hardware operation).
func (b *Bitcell) Value() bool { return b.stored }

// Swing returns the completed fraction of the current transition.
func (b *Bitcell) Swing() float64 { return b.swing }
