package trace

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"strings"
	"testing"

	"lowvcc/internal/isa"
)

// writeReference is the record-at-a-time encoder Write replaced; Write
// must produce exactly its bytes.
func writeReference(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if len(t.Name) > 0xFFFF {
		return errors.New("name too long")
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(len(t.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(t.Insts))); err != nil {
		return err
	}
	var rec [recordBytes]byte
	for i := range t.Insts {
		in := &t.Insts[i]
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
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// randomTrace fills n records with arbitrary field values: Write encodes
// whatever it is given, valid or not.
func randomTrace(r *rand.Rand, name string, n int) *Trace {
	t := &Trace{Name: name, Insts: make([]Inst, n)}
	for i := range t.Insts {
		t.Insts[i] = Inst{
			PC:    r.Uint64(),
			Addr:  r.Uint64(),
			Op:    isa.Op(r.Uint32()),
			Dst:   isa.Reg(r.Uint32()),
			Src1:  isa.Reg(r.Uint32()),
			Src2:  isa.Reg(r.Uint32()),
			Taken: r.IntN(2) == 1,
			Size:  uint8(r.Uint32()),
		}
	}
	return t
}

// TestWriteMatchesReference: the block encoder writes the reference
// encoder's bytes for every length around the block boundaries and for
// names up to the format's limit.
func TestWriteMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	const b = writeBlockRecords
	names := []string{"", "x", strings.Repeat("n", 0xFFFF)}
	for _, n := range []int{0, 1, 5, b - 1, b, b + 1, 3*b + 7} {
		for _, name := range names {
			tr := randomTrace(r, name, n)
			var got, want bytes.Buffer
			if err := Write(&got, tr); err != nil {
				t.Fatal(err)
			}
			if err := writeReference(&want, tr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("n=%d name len %d: block encoding differs from the reference", n, len(name))
			}
		}
	}
}

// TestWriteErrors: an oversized name writes nothing, and a failing writer's
// error comes back.
func TestWriteErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Trace{Name: strings.Repeat("n", 0x10000)}); err == nil || buf.Len() != 0 {
		t.Fatalf("oversized name: err %v, %d bytes written", err, buf.Len())
	}
	boom := errors.New("boom")
	tr := randomTrace(rand.New(rand.NewPCG(3, 4)), "t", 3*writeBlockRecords)
	for limit := range 3 {
		w := &failingWriter{calls: limit, err: boom}
		if err := Write(w, tr); !errors.Is(err, boom) {
			t.Fatalf("failure at write %d: got %v", limit, err)
		}
	}
}

// failingWriter accepts calls writes, then fails every later one.
type failingWriter struct {
	calls int
	err   error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.calls == 0 {
		return 0, w.err
	}
	w.calls--
	return len(p), nil
}

// BenchmarkTraceHash times what a trace's content hash costs: sha256 over
// Write's encoding of a 300k-instruction trace, the sweep-longtrace size.
func BenchmarkTraceHash(b *testing.B) {
	tr := randomTrace(rand.New(rand.NewPCG(5, 6)), "long-300000-1", 300000)
	b.SetBytes(int64(len(tr.Insts) * recordBytes))
	for b.Loop() {
		h := sha256.New()
		if err := Write(h, tr); err != nil {
			b.Fatal(err)
		}
		h.Sum(nil)
	}
}
