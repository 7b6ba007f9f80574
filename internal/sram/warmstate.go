package sram

import (
	"encoding/binary"
	"fmt"
)

// WarmState is the checkpointable snapshot of an array that has only ever
// been written through the functional warm path (settled writes stamped at
// cycle 0). It captures exactly the state that determines future behaviour
// under the timing-independent access-order contract: the data words and
// which entries have been written (ready == 1). Everything else — written
// stamps, corruption, port counters, the ready bound — is either
// provably at its post-warm value or derivable from Ready, so a restore
// reconstructs it instead of serializing it.
//
// A WarmState is immutable once captured: restores copy out of it, so one
// snapshot is safely shared read-only across any number of cores.
type WarmState struct {
	// Data is the full backing store as bytes: each entry's word in
	// big-endian order, 8 bytes per entry. The byte form is the checkpoint
	// wire format; it is produced only here and consumed only by
	// RestoreWarm.
	Data []byte
	// Ready is a bitset over entries: bit e set means entry e has been
	// warm-written (ready stamp 1); clear means never written (stamp 0).
	Ready []uint64
}

// CaptureWarm snapshots the array's warm state. It fails if the array
// carries any state a pure functional warm-up from reset cannot produce
// (timed writes, stabilization windows, corruption) — the checkpoint layer
// must never silently serialize timing-dependent state.
func (a *Array) CaptureWarm() (*WarmState, error) {
	s := &WarmState{
		Data:  make([]byte, 8*len(a.slots)),
		Ready: make([]uint64, (a.cfg.Entries+63)/64),
	}
	for i, e := range a.slots {
		binary.BigEndian.PutUint64(s.Data[8*i:], e.word)
		switch {
		case e.written != 0 || e.corrupt:
			return nil, fmt.Errorf("sram %q: entry %d carries timed state (written %d, corrupt %v)",
				a.cfg.Name, i, e.written, e.corrupt)
		case e.ready == 1:
			s.Ready[i/64] |= 1 << (i % 64)
		case e.ready != 0:
			return nil, fmt.Errorf("sram %q: entry %d ready stamp %d is not a warm stamp",
				a.cfg.Name, i, e.ready)
		}
	}
	return s, nil
}

// RestoreWarm loads a warm snapshot into the array, which must be freshly
// constructed (or equivalent to it). The snapshot is only read: the array
// gets its own copy of the data and a recomputed ready bound.
func (a *Array) RestoreWarm(s *WarmState) error {
	if len(s.Data) != 8*len(a.slots) || len(s.Ready) != (a.cfg.Entries+63)/64 {
		return fmt.Errorf("sram %q: warm snapshot shape mismatch (%d/%d data bytes, %d/%d ready words)",
			a.cfg.Name, len(s.Data), 8*len(a.slots), len(s.Ready), (a.cfg.Entries+63)/64)
	}
	a.maxReady = 0
	for i := range a.slots {
		a.slots[i] = slot{word: binary.BigEndian.Uint64(s.Data[8*i:])}
		if s.Ready[i/64]&(1<<(i%64)) != 0 {
			a.slots[i].ready = 1
			a.maxReady = 1
		}
	}
	return nil
}
