// Package trace defines the instruction-trace representation that drives
// the simulator, with an in-memory form and a compact binary file format.
//
// The paper evaluates on 531 proprietary traces of 10M instructions each
// (Section 5.1); this reproduction generates synthetic traces (package
// workload) with the same role. The format carries exactly what the timing
// model needs: op class, register operands, memory address, and branch
// outcome.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"lowvcc/internal/isa"
)

// Inst is one dynamic instruction.
type Inst struct {
	// PC is the instruction address (drives IL0, ITLB, BP indexing).
	PC uint64
	// Addr is the effective address for loads/stores, and the target for
	// taken control transfers.
	Addr uint64
	// Op is the operation class.
	Op isa.Op
	// Dst is the destination register, or isa.RegNone.
	Dst isa.Reg
	// Src1, Src2 are source registers, or isa.RegNone.
	Src1, Src2 isa.Reg
	// Taken is the branch outcome (meaningful for OpBranch; calls and
	// returns are always taken).
	Taken bool
	// Size is the access width in bytes for loads/stores.
	Size uint8
}

// Validate checks structural well-formedness of an instruction.
func (in Inst) Validate() error {
	if !in.Op.Valid() {
		return fmt.Errorf("trace: invalid op %d", uint8(in.Op))
	}
	if in.Dst != isa.RegNone && !in.Dst.Valid() {
		return fmt.Errorf("trace: invalid dst %d", uint8(in.Dst))
	}
	if in.Src1 != isa.RegNone && !in.Src1.Valid() {
		return fmt.Errorf("trace: invalid src1 %d", uint8(in.Src1))
	}
	if in.Src2 != isa.RegNone && !in.Src2.Valid() {
		return fmt.Errorf("trace: invalid src2 %d", uint8(in.Src2))
	}
	if isa.WritesReg(in.Op) && in.Dst == isa.RegNone {
		return fmt.Errorf("trace: %v without destination", in.Op)
	}
	if isa.IsMem(in.Op) && in.Size == 0 {
		return fmt.Errorf("trace: %v with zero size", in.Op)
	}
	return nil
}

// Trace is an in-memory instruction sequence with an identifying name.
type Trace struct {
	Name  string
	Insts []Inst
}

// Len returns the number of instructions.
func (t *Trace) Len() int { return len(t.Insts) }

// Binary format:
//
//	magic   [8]byte  "LVCCTRC1"
//	nameLen uint16, name bytes
//	count   uint64
//	records count * 24 bytes each:
//	  pc uint64, addr uint64, op uint8, dst uint8, src1 uint8, src2 uint8,
//	  flags uint8 (bit0 = taken), size uint8, pad uint16
var magic = [8]byte{'L', 'V', 'C', 'C', 'T', 'R', 'C', '1'}

const recordBytes = 24

// ErrBadMagic is returned when a stream does not begin with the trace magic.
var ErrBadMagic = errors.New("trace: bad magic (not a lowvcc trace)")

// writeBlockRecords is how many records Write encodes into its buffer
// before handing them to the writer in one call.
const writeBlockRecords = 1024

// Write encodes t to w in the binary format. Records are encoded into a
// block buffer and written a block at a time.
func Write(w io.Writer, t *Trace) error {
	if len(t.Name) > 0xFFFF {
		return fmt.Errorf("trace: name too long (%d bytes)", len(t.Name))
	}
	buf := make([]byte, 0, len(magic)+2+len(t.Name)+8+min(len(t.Insts), writeBlockRecords)*recordBytes)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(t.Name)))
	buf = append(buf, t.Name...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(t.Insts)))
	insts := t.Insts
	for {
		k := min(len(insts), writeBlockRecords)
		off := len(buf)
		buf = buf[:off+k*recordBytes]
		for i := range insts[:k] {
			putRecord((*[recordBytes]byte)(buf[off+i*recordBytes:]), &insts[i])
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if insts = insts[k:]; len(insts) == 0 {
			return nil
		}
		buf = buf[:0]
	}
}

// putRecord encodes one instruction as a record.
func putRecord(rec *[recordBytes]byte, in *Inst) {
	binary.LittleEndian.PutUint64(rec[0:], in.PC)
	binary.LittleEndian.PutUint64(rec[8:], in.Addr)
	rec[16] = uint8(in.Op)
	rec[17] = uint8(in.Dst)
	rec[18] = uint8(in.Src1)
	rec[19] = uint8(in.Src2)
	var flags uint8
	if in.Taken {
		flags |= 1
	}
	rec[20] = flags
	rec[21] = in.Size
	rec[22], rec[23] = 0, 0
}

// Read decodes a trace from r. Instructions are validated on the way in so
// that a corrupt file fails loudly rather than poisoning an experiment:
// empty input, a truncated header or record stream, a hostile count and
// structurally invalid instructions all return descriptive errors, and the
// decoder never allocates ahead of the bytes it has actually read.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if n, err := io.ReadFull(br, m[:]); err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("trace: empty input (not a lowvcc trace)")
		}
		return nil, fmt.Errorf("trace: truncated magic (%d bytes, want 8): %w", n, err)
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	var nameLen uint16
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return nil, fmt.Errorf("trace: truncated header: reading name length: %w", err)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: truncated header: reading %d-byte name: %w", nameLen, err)
	}
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("trace: truncated header: reading count: %w", err)
	}
	const maxInsts = 1 << 31
	if count > maxInsts {
		return nil, fmt.Errorf("trace: implausible instruction count %d (max %d)", count, uint64(maxInsts))
	}
	// Grow in bounded chunks rather than trusting the declared count: a
	// truncated or hostile file fails at its first missing record instead
	// of reserving count * 48 bytes up front.
	const allocChunk = 1 << 16
	initial := count
	if initial > allocChunk {
		initial = allocChunk
	}
	t := &Trace{Name: string(name), Insts: make([]Inst, 0, initial)}
	var rec [recordBytes]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: truncated: record %d of declared %d: %w", i, count, err)
		}
		in := Inst{
			PC:    binary.LittleEndian.Uint64(rec[0:]),
			Addr:  binary.LittleEndian.Uint64(rec[8:]),
			Op:    isa.Op(rec[16]),
			Dst:   isa.Reg(rec[17]),
			Src1:  isa.Reg(rec[18]),
			Src2:  isa.Reg(rec[19]),
			Taken: rec[20]&1 != 0,
			Size:  rec[21],
		}
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		t.Insts = append(t.Insts, in)
	}
	return t, nil
}

// Stats summarizes the composition of a trace.
type Stats struct {
	Count   int
	PerOp   [isa.NumOps]int
	Loads   int
	Stores  int
	Ctrl    int
	Taken   int
	WithDst int
}

// Summarize computes composition statistics for t.
func Summarize(t *Trace) Stats {
	var s Stats
	s.Count = len(t.Insts)
	for i := range t.Insts {
		in := &t.Insts[i]
		s.PerOp[in.Op]++
		switch {
		case in.Op == isa.OpLoad:
			s.Loads++
		case in.Op == isa.OpStore:
			s.Stores++
		}
		if isa.IsCtrl(in.Op) {
			s.Ctrl++
			if in.Taken || in.Op != isa.OpBranch {
				s.Taken++
			}
		}
		if in.Dst != isa.RegNone {
			s.WithDst++
		}
	}
	return s
}
