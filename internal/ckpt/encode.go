package ckpt

import (
	"encoding/binary"
	"fmt"
	"math"

	"lowvcc/internal/cache"
	"lowvcc/internal/core"
	"lowvcc/internal/predictor"
	"lowvcc/internal/sram"
)

// The wire encoding is deliberately primitive: fixed-width little-endian
// scalars, length-prefixed slices, fields in struct order. Two properties
// matter — it is deterministic (the same warm state encodes to the same
// bytes, so concurrent writers of one snapshot key publish identical
// records and the vcc-independence tests compare snapshots byte for byte) and it is
// self-delimiting (a decoder can bounds-check every read, so a scrambled
// file fails loudly instead of producing a plausible snapshot).

type encoder struct{ buf []byte }

func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

func (e *encoder) u64s(v []uint64) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.u64(x)
	}
}

func (e *encoder) bytes(v []byte) {
	e.u64(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.err = fmt.Errorf("ckpt: truncated payload at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// u32 reads a u64 field that must hold a 32-bit value, so every accepted
// payload is the canonical encoding of what it decodes to.
func (d *decoder) u32() uint32 {
	v := d.u64()
	if d.err == nil && v > math.MaxUint32 {
		d.err = fmt.Errorf("ckpt: 32-bit field holds %#x at offset %d", v, d.off-8)
	}
	return uint32(v)
}

// lenField reads a slice length and sanity-bounds it against the remaining
// payload so a scrambled length cannot drive a huge allocation.
func (d *decoder) lenField(width int) int {
	n := d.u64()
	if d.err == nil && n > uint64((len(d.buf)-d.off)/width) {
		d.err = fmt.Errorf("ckpt: implausible length %d at offset %d", n, d.off)
	}
	return int(n)
}

func (d *decoder) u64s() []uint64 {
	n := d.lenField(8)
	if d.err != nil {
		return nil
	}
	v := make([]uint64, n)
	for i := range v {
		v[i] = d.u64()
	}
	return v
}

func (d *decoder) bytes() []byte {
	n := d.lenField(1)
	if d.err != nil {
		return nil
	}
	v := make([]byte, n)
	copy(v, d.buf[d.off:d.off+n])
	d.off += n
	return v
}

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("ckpt: %d trailing bytes after payload", len(d.buf)-d.off)
	}
	return nil
}

func encodeCache(w *cache.WarmState) []byte {
	e := &encoder{buf: make([]byte, 0,
		8*(len(w.Tags)+len(w.Valid)+len(w.Dirty)+len(w.LRU)+7)+
			len(w.Data.Data)+8*len(w.Data.Ready))}
	e.u64s(w.Tags)
	e.u64s(w.Valid)
	e.u64s(w.Dirty)
	e.u64s(w.LRU)
	e.u64(w.LRUTick)
	e.bytes(w.Data.Data)
	e.u64s(w.Data.Ready)
	return e.buf
}

func decodeCache(buf []byte) (*cache.WarmState, error) {
	d := &decoder{buf: buf}
	w := &cache.WarmState{
		Tags:  d.u64s(),
		Valid: d.u64s(),
		Dirty: d.u64s(),
		LRU:   d.u64s(),
	}
	w.LRUTick = d.u64()
	w.Data = &sram.WarmState{Data: d.bytes(), Ready: d.u64s()}
	if err := d.done(); err != nil {
		return nil, err
	}
	return w, nil
}

func encodeBP(w *predictor.WarmState) []byte {
	e := &encoder{buf: make([]byte, 0, len(w.Counters)+8*(len(w.RSB)+5))}
	e.bytes(w.Counters)
	e.u64(uint64(w.History))
	e.u64s(w.RSB)
	e.u64(uint64(uint32(w.Top)))
	return e.buf
}

func decodeBP(buf []byte) (*predictor.WarmState, error) {
	d := &decoder{buf: buf}
	w := &predictor.WarmState{Counters: d.bytes()}
	w.History = d.u32()
	w.RSB = d.u64s()
	w.Top = int32(d.u32())
	if err := d.done(); err != nil {
		return nil, err
	}
	return w, nil
}

// EncodeSnapshot renders a snapshot's canonical byte form: the il0, dl0,
// ul1, itlb and dtlb payloads, then the predictor payload, each
// length-prefixed. Two snapshots are identical warm states iff their
// encodings are equal — the vcc-independence tests compare these bytes
// directly — and a stored snapshot is a log record whose payload is
// exactly these bytes.
func EncodeSnapshot(ws *core.WarmState) []byte {
	m := ws.Mem
	e := &encoder{}
	for _, w := range []*cache.WarmState{m.IL0, m.DL0, m.UL1, m.ITLB, m.DTLB} {
		e.bytes(encodeCache(w))
	}
	e.bytes(encodeBP(ws.BP))
	return e.buf
}

// decodeSnapshot inverts EncodeSnapshot, accepting only canonical
// encodings.
func decodeSnapshot(buf []byte) (*core.WarmState, error) {
	d := &decoder{buf: buf}
	mem := &cache.HierarchyWarmState{}
	var err error
	for _, dst := range []**cache.WarmState{&mem.IL0, &mem.DL0, &mem.UL1, &mem.ITLB, &mem.DTLB} {
		if *dst, err = decodeCache(d.bytes()); err != nil {
			return nil, err
		}
	}
	bp, err := decodeBP(d.bytes())
	if err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &core.WarmState{Mem: mem, BP: bp}, nil
}
