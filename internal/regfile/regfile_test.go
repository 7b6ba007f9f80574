package regfile

import (
	"testing"

	"lowvcc/internal/isa"
)

func TestWriteReadRoundTrip(t *testing.T) {
	f := New()
	f.Write(10, 3, 0xDEADBEEF)
	v, ok := f.Read(11, 3)
	if !ok || v != 0xDEADBEEF {
		t.Fatalf("Read = (%#x, %v)", v, ok)
	}
	if f.Stats().IntegrityErrors != 0 {
		t.Fatal("integrity error on clean round trip")
	}
}

func TestInterruptedWriteWindow(t *testing.T) {
	f := New()
	f.SetIRAW(true, 1)
	f.Write(100, 5, 42)
	// Stabilizing during 101; readable from 102.
	if f.Stable(101, 5) {
		t.Fatal("stable inside the window")
	}
	if v, ok := f.Read(101, 5); ok || v == 42 {
		t.Fatalf("in-window read = (%d, %v), want scrambled violation", v, ok)
	}
	if f.Stats().ViolationReads != 1 {
		t.Fatalf("ViolationReads = %d", f.Stats().ViolationReads)
	}
	// The destroyed value stays wrong until rewritten and stabilized.
	f.Write(200, 5, 43)
	if v, ok := f.Read(202, 5); !ok || v != 43 {
		t.Fatalf("post-rewrite read = (%d, %v)", v, ok)
	}
}

// TestBypassAlwaysSafe holds the timing contract the bypass network relies
// on: consumers issuing before the write take the value from the bypass
// network and touch no SRAM, and the first array read the scoreboard
// allows after the stabilization bubble (issue at w+N, read at w+N+1) is
// clean.
func TestBypassAlwaysSafe(t *testing.T) {
	for n := 1; n <= 3; n++ {
		f := New()
		f.SetIRAW(true, n)
		const w = int64(100)
		f.Write(w, 7, 9)
		if f.Stable(w+int64(n), 7) {
			t.Fatalf("N=%d: entry stable before its window closed", n)
		}
		if f.Stats().Reads != 0 || f.Array().Stats().Reads != 0 {
			t.Fatalf("N=%d: a write charged reads", n)
		}
		if v, ok := f.Read(w+int64(n)+1, 7); !ok || v != 9 {
			t.Fatalf("N=%d: first post-bubble read = (%d, %v)", n, v, ok)
		}
		if f.Array().Stats().ViolationReads != 0 {
			t.Fatalf("N=%d: violation on the contract's schedule", n)
		}
	}
}

func TestWritePipelinePortContention(t *testing.T) {
	f := New()
	f.SetWritePipeline(3)
	f.Write(10, 1, 1) // port busy through 12
	f.Write(13, 2, 2)
	f.NotePortContention(2)
	if f.Stats().PortContentionCycles != 2 {
		t.Fatal("contention not counted")
	}
}

func TestWriteIntoBusyPortPanics(t *testing.T) {
	f := New()
	f.SetWritePipeline(2)
	f.Write(10, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f.Write(11, 2, 2)
}

func TestInvalidRegisterPanics(t *testing.T) {
	f := New()
	for _, fn := range []func(){
		func() { f.Write(1, isa.RegNone, 0) },
		func() { f.Read(1, isa.Reg(99)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		}()
	}
}

func TestSetIRAWValidation(t *testing.T) {
	f := New()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f.SetIRAW(true, 0)
}

func TestTotalBits(t *testing.T) {
	f := New()
	if f.TotalBits() != isa.NumRegs*8*8 {
		t.Fatalf("TotalBits = %d", f.TotalBits())
	}
}

// TestAllRegistersIndependent: writes to one register never disturb others
// (EntriesPerSet=1: no set-wide destruction in the RF).
func TestAllRegistersIndependent(t *testing.T) {
	f := New()
	f.SetIRAW(true, 2)
	for r := 0; r < isa.NumRegs; r++ {
		f.Write(int64(100+r*10), isa.Reg(r), uint64(r*7+1))
	}
	for r := 0; r < isa.NumRegs; r++ {
		if v, ok := f.Read(int64(1000+r), isa.Reg(r)); !ok || v != uint64(r*7+1) {
			t.Fatalf("r%d = (%d, %v)", r, v, ok)
		}
	}
}
