package sram

import (
	"encoding/binary"
	"testing"
)

// byteScramble is the violation pattern as the array applied it when
// entries were byte strings: byte i of the big-endian entry flipped by
// 0xA5 ^ (entry+i).
func byteScramble(word uint64, entry int) uint64 {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], word)
	for i := range b {
		b[i] ^= byte(0xA5 ^ (entry + i))
	}
	return binary.BigEndian.Uint64(b[:])
}

// TestScrambleMatchesBytePattern pins the word scramble to the byte-wise
// pattern for every entry index in [0, 4096), so violation data (and any
// signature compared against it) is unchanged by the word representation.
func TestScrambleMatchesBytePattern(t *testing.T) {
	word := uint64(0x0123456789ABCDEF)
	for e := 0; e < 4096; e++ {
		if got, want := word^scrambleMask(e), byteScramble(word, e); got != want {
			t.Fatalf("entry %d: word scramble %#x, byte pattern %#x", e, got, want)
		}
		word = word*0x9E3779B97F4A7C15 + 1
	}

	// End to end: a violating read returns exactly the byte-pattern result.
	a := MustNew(Config{Name: "s", Entries: 300, EntriesPerSet: 1})
	const data = 0xDEADBEEFCAFEF00D
	a.Write(10, 299, data, true, 2)
	if got, ok := a.Read(11, 299); ok || got != byteScramble(data, 299) {
		t.Fatalf("violating read = (%#x, %v), want (%#x, false)", got, ok, byteScramble(data, 299))
	}
}

// TestWarmStateBigEndian: a warm snapshot carries each word as 8
// big-endian bytes, and restoring it yields the same words.
func TestWarmStateBigEndian(t *testing.T) {
	cfg := Config{Name: "w", Entries: 70, EntriesPerSet: 7}
	a := MustNew(cfg)
	for e := 0; e < cfg.Entries; e += 3 {
		a.Write(0, e, uint64(e)<<40|0xA1B2C3, false, 0)
	}
	s, err := a.CaptureWarm()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Data) != 8*cfg.Entries {
		t.Fatalf("snapshot holds %d data bytes, want %d", len(s.Data), 8*cfg.Entries)
	}
	if got := binary.BigEndian.Uint64(s.Data[8*3:]); got != 3<<40|0xA1B2C3 {
		t.Fatalf("entry 3 encodes as %#x", got)
	}
	b := MustNew(cfg)
	if err := b.RestoreWarm(s); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < cfg.Entries; e++ {
		if b.Peek(e) != a.Peek(e) || b.ReadyAt(e) != a.ReadyAt(e) {
			t.Fatalf("entry %d restored as (%#x, ready %d), want (%#x, ready %d)",
				e, b.Peek(e), b.ReadyAt(e), a.Peek(e), a.ReadyAt(e))
		}
	}
	s.Data = s.Data[:len(s.Data)-1]
	if err := MustNew(cfg).RestoreWarm(s); err == nil {
		t.Fatal("short data accepted")
	}
}
