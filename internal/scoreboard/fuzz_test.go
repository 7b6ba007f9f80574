package scoreboard

import (
	"math"
	"testing"

	"lowvcc/internal/isa"
	"lowvcc/internal/rng"
)

// shiftRef is the literal hardware of Section 4.1: one read and one write
// shift register per logical register, every register shifted left each
// cycle with its least significant bit replicated. It exists only to hold
// the boundary representation to the paper's mechanism.
type shiftRef struct {
	bits, bypass, n int
	read, write     []uint32
	long            []bool
}

func newShiftRef(cfg Config) *shiftRef {
	all := uint32(1)<<cfg.Bits - 1
	r := &shiftRef{
		bits:   cfg.Bits,
		bypass: cfg.BypassLevels,
		read:   make([]uint32, cfg.Regs),
		write:  make([]uint32, cfg.Regs),
		long:   make([]bool, cfg.Regs),
	}
	for i := range r.read {
		r.read[i], r.write[i] = all, all
	}
	return r
}

func (r *shiftRef) all() uint32 { return uint32(1)<<r.bits - 1 }

func (r *shiftRef) shift() {
	for i := range r.read {
		r.read[i] = (r.read[i]<<1 | r.read[i]&1) & r.all()
		r.write[i] = (r.write[i]<<1 | r.write[i]&1) & r.all()
	}
}

// produce installs the Figure 8 initialization values for a producer of
// the given latency: L zeros, then in IRAW mode `bypass` ones and N zeros,
// then ones, from the MSB down; the write view is L zeros then ones.
func (r *shiftRef) produce(reg isa.Reg, latency int) {
	var read uint32
	pos := r.bits - 1 - latency // bit index just below the latency zeros
	if r.n > 0 {
		for i := 0; i < r.bypass; i++ {
			read |= 1 << pos
			pos--
		}
		pos -= r.n
	}
	for ; pos >= 0; pos-- {
		read |= 1 << pos
	}
	r.read[reg], r.write[reg], r.long[reg] = read, r.all()>>latency, false
}

func (r *shiftRef) beginLong(reg isa.Reg) {
	r.read[reg], r.write[reg], r.long[reg] = 0, 0, true
}

func (r *shiftRef) flush() {
	for i := range r.read {
		r.read[i], r.write[i], r.long[i] = r.all(), r.all(), false
	}
}

func (r *shiftRef) msb(v uint32) bool { return v>>(r.bits-1)&1 == 1 }

func (r *shiftRef) readReady(reg isa.Reg) bool  { return !r.long[reg] && r.msb(r.read[reg]) }
func (r *shiftRef) writeReady(reg isa.Reg) bool { return !r.long[reg] && r.msb(r.write[reg]) }

// nextChange shifts a copy of reg's registers forward until either MSB
// flips; after Bits shifts both are steady (LSB replication).
func (r *shiftRef) nextChange(reg isa.Reg, now int64) int64 {
	if r.long[reg] {
		return math.MaxInt64
	}
	read, write := r.read[reg], r.write[reg]
	r0, w0 := r.msb(read), r.msb(write)
	for j := 1; j <= r.bits; j++ {
		read = (read<<1 | read&1) & r.all()
		write = (write<<1 | write&1) & r.all()
		if r.msb(read) != r0 || r.msb(write) != w0 {
			return now + int64(j)
		}
	}
	return math.MaxInt64
}

// FuzzScoreboardMatchesShiftRegister drives the boundary scoreboard and the
// literal shift-register reference with the same operations — producers of
// random latency, N reconfigurations in 0..MaxN, long-latency begin and
// completion, flushes, single shifts and AdvanceTo jumps — under a bypass
// depth of 0..2, and after every operation requires ReadReady, WriteReady,
// IRAWBlocked, NextChange, ReadView and LongPending to agree on every
// register.
func FuzzScoreboardMatchesShiftRegister(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{1, 1, 1, 0, 5, 3, 7, 7, 7, 7, 7, 7, 7})                // Figure 8: L=3, N=1
	f.Add([]byte{0, 0, 2, 1, 0, 5, 2, 0, 4, 7, 7, 6, 9, 3, 0, 4, 0, 2}) // no bypass window
	f.Add([]byte{2, 0, 3, 1, 2, 1, 3, 2, 6, 1, 4, 2, 1, 7, 7, 7, 5, 7})
	src := rng.New(0x5C0B)
	for i := 0; i < 12; i++ {
		data := make([]byte, 600)
		for j := range data {
			data[j] = byte(src.Intn(256))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := DefaultConfig()
		cfg.BypassLevels = int(data[0] % 3)
		data = data[1:]
		sb := New(cfg)
		ref := newShiftRef(cfg)
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		for step := 0; len(data) > 0; step++ {
			op := next() % 8
			reg := isa.Reg(next() % cfg.Regs)
			switch op {
			case 0:
				n := next() % (sb.MaxN() + 1)
				sb.SetStabilizeCycles(n)
				ref.n = n
			case 1, 2:
				lat := 1 + next()%sb.MaxShortLatency()
				sb.IssueProducer(reg, lat)
				ref.produce(reg, lat)
			case 3:
				if !sb.LongPending(reg) {
					sb.BeginLongLatency(reg)
					ref.beginLong(reg)
				}
			case 4:
				if sb.LongPending(reg) {
					rem := 1 + next()%sb.MaxShortLatency()
					sb.CompleteLongLatency(reg, rem)
					ref.produce(reg, rem)
				}
			case 5:
				sb.Flush()
				ref.flush()
			case 6:
				k := next() % 32
				sb.AdvanceTo(sb.Now() + int64(k))
				for ; k > 0; k-- {
					ref.shift()
				}
			default:
				sb.Shift()
				ref.shift()
			}
			for r := isa.Reg(0); int(r) < cfg.Regs; r++ {
				rr, wr := ref.readReady(r), ref.writeReady(r)
				if got := sb.LongPending(r); got != ref.long[r] {
					t.Fatalf("step %d r%d: LongPending = %v, reference says %v", step, r, got, ref.long[r])
				}
				if got := sb.ReadReady(r); got != rr {
					t.Fatalf("step %d r%d: ReadReady = %v, shift register says %v (read %012b)", step, r, got, rr, ref.read[r])
				}
				if got := sb.WriteReady(r); got != wr {
					t.Fatalf("step %d r%d: WriteReady = %v, shift register says %v (write %012b)", step, r, got, wr, ref.write[r])
				}
				if got, want := sb.IRAWBlocked(r), !ref.long[r] && !rr && wr; got != want {
					t.Fatalf("step %d r%d: IRAWBlocked = %v, shift register says %v", step, r, got, want)
				}
				if got, want := sb.NextChange(r), ref.nextChange(r, sb.Now()); got != want {
					t.Fatalf("step %d r%d: NextChange = %d, shift register says %d (now %d, read %012b write %012b)",
						step, r, got, want, sb.Now(), ref.read[r], ref.write[r])
				}
				if got := sb.ReadView(r); got != ref.read[r] {
					t.Fatalf("step %d r%d: ReadView = %012b, shift register holds %012b", step, r, got, ref.read[r])
				}
			}
		}
	})
}
