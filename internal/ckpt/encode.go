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
// bytes, which is what makes blobs content-addressable and the
// vcc-independence tests byte-comparable) and it is self-delimiting (a
// decoder can bounds-check every read, so a scrambled blob fails loudly
// instead of producing a plausible snapshot).

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
		d.err = fmt.Errorf("ckpt: truncated blob at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// u32 reads a u64 field that must hold a 32-bit value, so every accepted
// blob is the canonical encoding of what it decodes to.
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

// components maps a snapshot to its named component payloads, in the fixed
// manifest order. Each component is one content-addressed blob on disk;
// consecutive boundaries of the same trace typically change only a subset
// of components, so the unchanged ones share their blob files.
func components(ws *core.WarmState) []struct {
	name string
	data []byte
} {
	return []struct {
		name string
		data []byte
	}{
		{"il0", encodeCache(ws.Mem.IL0)},
		{"dl0", encodeCache(ws.Mem.DL0)},
		{"ul1", encodeCache(ws.Mem.UL1)},
		{"itlb", encodeCache(ws.Mem.ITLB)},
		{"dtlb", encodeCache(ws.Mem.DTLB)},
		{"bp", encodeBP(ws.BP)},
	}
}

// componentNames is the manifest order; decode rejects manifests that list
// anything else.
var componentNames = []string{"il0", "dl0", "ul1", "itlb", "dtlb", "bp"}

func assemble(payloads map[string][]byte) (*core.WarmState, error) {
	mem := &cache.HierarchyWarmState{}
	var err error
	for _, p := range []struct {
		name string
		dst  **cache.WarmState
	}{{"il0", &mem.IL0}, {"dl0", &mem.DL0}, {"ul1", &mem.UL1}, {"itlb", &mem.ITLB}, {"dtlb", &mem.DTLB}} {
		if *p.dst, err = decodeCache(payloads[p.name]); err != nil {
			return nil, fmt.Errorf("ckpt: component %s: %w", p.name, err)
		}
	}
	bp, err := decodeBP(payloads["bp"])
	if err != nil {
		return nil, fmt.Errorf("ckpt: component bp: %w", err)
	}
	return &core.WarmState{Mem: mem, BP: bp}, nil
}

// EncodeSnapshot renders a snapshot's canonical byte form: every component
// payload concatenated in manifest order, each length-prefixed. Two
// snapshots are identical warm states iff their encodings are equal — the
// vcc-independence tests compare these bytes directly.
func EncodeSnapshot(ws *core.WarmState) []byte {
	e := &encoder{}
	for _, c := range components(ws) {
		e.bytes(c.data)
	}
	return e.buf
}
