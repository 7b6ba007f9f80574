package scoreboard

import (
	"math"
	"testing"
	"testing/quick"

	"lowvcc/internal/isa"
	"lowvcc/internal/rng"
)

func newSB(t *testing.T, n int) *Scoreboard {
	t.Helper()
	sb := New(DefaultConfig())
	sb.SetStabilizeCycles(n)
	return sb
}

// TestFigure8Pattern reproduces the paper's worked example: a 3-cycle
// producer with one bypass level and N=1 initializes 0001011 (here widened
// to 12 bits: 000101111111).
func TestFigure8Pattern(t *testing.T) {
	sb := newSB(t, 1)
	got := sb.Pattern(3)
	want := uint32(0b000101111111)
	if got != want {
		t.Fatalf("Pattern(3) = %012b, want %012b", got, want)
	}
}

func TestBaselinePattern(t *testing.T) {
	sb := newSB(t, 0) // IRAW off: baseline initialization, no bubble
	got := sb.Pattern(3)
	want := uint32(0b000111111111)
	if got != want {
		t.Fatalf("baseline Pattern(3) = %012b, want %012b", got, want)
	}
}

// TestFigure8Timeline drives the full consumer-visible schedule of
// Figure 8: producer issues at cycle i with latency 3; consumers may issue
// at i+3 (bypass), must not at i+4 (stabilizing), and may from i+5 onward.
func TestFigure8Timeline(t *testing.T) {
	sb := newSB(t, 1)
	const r = isa.Reg(5)
	sb.IssueProducer(r, 3) // cycle i
	type step struct {
		ready bool
		iraw  bool
	}
	want := []step{
		{false, false}, // i+1
		{false, false}, // i+2
		{true, false},  // i+3: bypass window
		{false, true},  // i+4: stabilization bubble — the IRAW delay
		{true, false},  // i+5
		{true, false},  // i+6
	}
	for k, w := range want {
		sb.Shift()
		if got := sb.ReadReady(r); got != w.ready {
			t.Errorf("cycle i+%d: ReadReady = %v, want %v (view %012b)", k+1, got, w.ready, sb.ReadView(r))
		}
		if got := sb.IRAWBlocked(r); got != w.iraw {
			t.Errorf("cycle i+%d: IRAWBlocked = %v, want %v", k+1, got, w.iraw)
		}
	}
}

// TestBaselineTimeline: with N=0 the consumer may issue from i+3 onward
// with no bubble, as in the top row of Figure 8.
func TestBaselineTimeline(t *testing.T) {
	sb := newSB(t, 0)
	const r = isa.Reg(2)
	sb.IssueProducer(r, 3)
	want := []bool{false, false, true, true, true}
	for k, w := range want {
		sb.Shift()
		if got := sb.ReadReady(r); got != w {
			t.Errorf("cycle i+%d: ReadReady = %v, want %v", k+1, got, w)
		}
		if sb.IRAWBlocked(r) {
			t.Errorf("cycle i+%d: IRAWBlocked in baseline mode", k+1)
		}
	}
}

// TestTimelineOracle property-checks the shift-register machinery against
// the closed-form schedule for every short latency and every N: ready
// exactly in [L, L+bypass-1] and [L+bypass+N, inf).
func TestTimelineOracle(t *testing.T) {
	cfg := DefaultConfig()
	for n := 0; n <= 4; n++ {
		sb := New(cfg)
		sb.SetStabilizeCycles(n)
		for lat := 1; lat <= sb.MaxShortLatency(); lat++ {
			sb.Flush()
			const r = isa.Reg(0)
			sb.IssueProducer(r, lat)
			for k := 1; k <= cfg.Bits+4; k++ {
				sb.Shift()
				var want bool
				if n == 0 {
					want = k >= lat
				} else {
					inBypass := k >= lat && k < lat+cfg.BypassLevels
					afterBubble := k >= lat+cfg.BypassLevels+n
					want = inBypass || afterBubble
				}
				if got := sb.ReadReady(r); got != want {
					t.Fatalf("N=%d lat=%d cycle+%d: ReadReady=%v want %v (view %012b)",
						n, lat, k, got, want, sb.ReadView(r))
				}
			}
		}
	}
}

// TestWriteViewIgnoresBubble: writers only wait for value availability;
// the stabilization bubble never blocks a WAW rewrite (Section 4.4).
func TestWriteViewIgnoresBubble(t *testing.T) {
	sb := newSB(t, 1)
	const r = isa.Reg(7)
	sb.IssueProducer(r, 3)
	for k := 1; k <= 6; k++ {
		sb.Shift()
		want := k >= 3
		if got := sb.WriteReady(r); got != want {
			t.Errorf("cycle i+%d: WriteReady=%v, want %v", k, got, want)
		}
	}
}

func TestUnwrittenRegsReady(t *testing.T) {
	sb := newSB(t, 1)
	for r := 0; r < isa.NumRegs; r++ {
		if !sb.ReadReady(isa.Reg(r)) || !sb.WriteReady(isa.Reg(r)) {
			t.Fatalf("fresh register r%d not ready", r)
		}
	}
	if !sb.ReadReady(isa.RegNone) || !sb.WriteReady(isa.RegNone) {
		t.Fatal("RegNone must always be ready")
	}
}

func TestLongLatencyPath(t *testing.T) {
	sb := newSB(t, 1)
	const r = isa.Reg(3)
	sb.BeginLongLatency(r)
	for k := 0; k < 20; k++ {
		sb.Shift()
		if sb.ReadReady(r) || sb.WriteReady(r) {
			t.Fatalf("cycle %d: long-pending register became ready on its own", k)
		}
		if sb.IRAWBlocked(r) {
			t.Fatalf("cycle %d: long-pending register counts as IRAW-blocked", k)
		}
	}
	if !sb.LongPending(r) {
		t.Fatal("LongPending lost")
	}
	// Completion in 2 cycles re-arms the register like a 2-cycle producer:
	// bypass at +2, bubble at +3, ready from +4.
	sb.CompleteLongLatency(r, 2)
	want := []bool{false, true, false, true, true}
	for k, w := range want {
		sb.Shift()
		if got := sb.ReadReady(r); got != w {
			t.Errorf("post-completion cycle +%d: ReadReady=%v, want %v", k+1, got, w)
		}
	}
}

func TestCompleteLongLatencyWithoutPendingPanics(t *testing.T) {
	sb := newSB(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	sb.CompleteLongLatency(isa.Reg(1), 2)
}

func TestReconfigurationAcrossVcc(t *testing.T) {
	// Section 4.1.3: at 600 mV or higher the bubble disappears; at 575 mV
	// or lower one stabilization cycle is inserted. Pattern for a 3-cycle
	// producer: 0001111... vs 0001011...
	sb := newSB(t, 0)
	high := sb.Pattern(3)
	sb.SetStabilizeCycles(1)
	low := sb.Pattern(3)
	if high == low {
		t.Fatal("patterns identical across reconfiguration")
	}
	if high != 0b000111111111 || low != 0b000101111111 {
		t.Fatalf("patterns = %012b / %012b", high, low)
	}
}

func TestFlush(t *testing.T) {
	sb := newSB(t, 1)
	sb.IssueProducer(isa.Reg(1), 4)
	sb.BeginLongLatency(isa.Reg(2))
	sb.Flush()
	for r := 0; r < isa.NumRegs; r++ {
		if !sb.ReadReady(isa.Reg(r)) {
			t.Fatalf("r%d not ready after flush", r)
		}
	}
}

func TestMaxShortLatencyBounds(t *testing.T) {
	sb := newSB(t, 1)
	// 12 bits, 1 bypass, N=1: max short latency is 9.
	if got := sb.MaxShortLatency(); got != 9 {
		t.Fatalf("MaxShortLatency = %d, want 9", got)
	}
	sb.SetStabilizeCycles(0)
	if got := sb.MaxShortLatency(); got != 11 {
		t.Fatalf("baseline MaxShortLatency = %d, want 11", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Pattern beyond max latency did not panic")
		}
	}()
	sb.Pattern(12)
}

func TestSetStabilizeCyclesBounds(t *testing.T) {
	sb := New(DefaultConfig())
	if sb.MaxN() != 9 {
		t.Fatalf("MaxN = %d, want 9 for 12-bit registers", sb.MaxN())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range N did not panic")
		}
	}()
	sb.SetStabilizeCycles(10)
}

// TestShiftInvariantOnesTail: once a register's low bits are all ones they
// stay ones — readiness is eventually permanent (property test over random
// issue sequences).
func TestShiftInvariantOnesTail(t *testing.T) {
	f := func(lats [8]uint8, shifts uint8) bool {
		sb := New(DefaultConfig())
		sb.SetStabilizeCycles(1)
		for _, l := range lats {
			lat := int(l)%sb.MaxShortLatency() + 1
			sb.IssueProducer(isa.Reg(0), lat)
			for s := 0; s < int(shifts%8); s++ {
				sb.Shift()
			}
		}
		// After Bits shifts the register must be all ones.
		for s := 0; s < sb.Config().Bits; s++ {
			sb.Shift()
		}
		return sb.ReadView(isa.Reg(0)) == uint32(1<<sb.Config().Bits)-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAdvanceToMatchesShift: the bulk clock advance must be exactly
// equivalent to repeated Shifts — every view, at every register, at every
// elapsed time.
func TestAdvanceToMatchesShift(t *testing.T) {
	mk := func() *Scoreboard {
		sb := New(DefaultConfig())
		sb.SetStabilizeCycles(1)
		sb.IssueProducer(isa.Reg(0), 3)
		sb.IssueProducer(isa.Reg(1), 7)
		sb.BeginLongLatency(isa.Reg(2))
		return sb
	}
	stepped := mk()
	for k := 1; k <= 20; k++ {
		stepped.Shift()
		jumped := mk()
		jumped.AdvanceTo(int64(k))
		for r := 0; r < 4; r++ {
			reg := isa.Reg(r)
			if stepped.ReadReady(reg) != jumped.ReadReady(reg) ||
				stepped.WriteReady(reg) != jumped.WriteReady(reg) ||
				stepped.IRAWBlocked(reg) != jumped.IRAWBlocked(reg) ||
				stepped.ReadView(reg) != jumped.ReadView(reg) {
				t.Fatalf("k=%d r%d: AdvanceTo diverges from Shift (views %012b vs %012b)",
					k, r, stepped.ReadView(reg), jumped.ReadView(reg))
			}
		}
	}
}

// TestNextChangeIsExact property-checks NextChange against brute force: for
// every (latency, N, elapsed) it must name exactly the next cycle at which
// ReadReady, WriteReady or IRAWBlocked changes, and MaxInt64 only when no
// view ever flips again.
func TestNextChangeIsExact(t *testing.T) {
	const r = isa.Reg(0)
	for n := 0; n <= 4; n++ {
		sb := New(DefaultConfig())
		sb.SetStabilizeCycles(n)
		for lat := 1; lat <= sb.MaxShortLatency(); lat++ {
			sb.Flush()
			base := sb.Now()
			sb.IssueProducer(r, lat)
			for k := 0; k <= sb.Config().Bits+3; k++ {
				got := sb.NextChange(r)
				// Brute force: probe a clone forward until a view flips.
				probe := New(DefaultConfig())
				probe.SetStabilizeCycles(n)
				probe.IssueProducer(r, lat)
				probe.AdvanceTo(int64(k))
				r0, w0 := probe.ReadReady(r), probe.WriteReady(r)
				want := int64(math.MaxInt64)
				for j := k + 1; j <= 2*sb.Config().Bits+4; j++ {
					probe.AdvanceTo(int64(j))
					if probe.ReadReady(r) != r0 || probe.WriteReady(r) != w0 {
						want = base + int64(j)
						break
					}
				}
				if got != want {
					t.Fatalf("N=%d lat=%d k=%d: NextChange=%d want %d", n, lat, k, got, want)
				}
				sb.Shift()
			}
		}
	}
}

// TestNextChangeLongPending: event-completed registers have no self-change.
func TestNextChangeLongPending(t *testing.T) {
	sb := newSB(t, 1)
	sb.BeginLongLatency(isa.Reg(4))
	if got := sb.NextChange(isa.Reg(4)); got != math.MaxInt64 {
		t.Fatalf("NextChange(long-pending) = %d, want MaxInt64", got)
	}
	if got := sb.NextChange(isa.RegNone); got != math.MaxInt64 {
		t.Fatalf("NextChange(RegNone) = %d, want MaxInt64", got)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Regs: 0, Bits: 12, BypassLevels: 1},
		{Regs: 16, Bits: 1, BypassLevels: 1},
		{Regs: 16, Bits: 40, BypassLevels: 1},
		{Regs: 16, Bits: 12, BypassLevels: -1},
	} {
		func() {
			defer func() { recover() }()
			New(cfg)
			t.Errorf("config %+v accepted", cfg)
		}()
	}
}

// TestIssueReadyMatchesSingleProbes holds the fused check to its
// definition: IssueReady(s1, s2, d) == ReadReady(s1) && ReadReady(s2) &&
// WriteReady(d), across randomized scoreboard states.
func TestIssueReadyMatchesSingleProbes(t *testing.T) {
	sb := New(DefaultConfig())
	src := rng.New(0x5B0A)
	randReg := func() isa.Reg {
		if src.Intn(4) == 0 {
			return isa.RegNone
		}
		return isa.Reg(src.Intn(isa.NumRegs))
	}
	for i := 0; i < 40000; i++ {
		switch src.Intn(10) {
		case 0:
			sb.SetStabilizeCycles(src.Intn(sb.MaxN() + 1))
		case 1:
			sb.Flush()
		case 2:
			sb.AdvanceTo(sb.Now() + int64(src.Intn(20)))
		case 3, 4:
			r := isa.Reg(src.Intn(isa.NumRegs))
			if sb.LongPending(r) {
				sb.CompleteLongLatency(r, 1+src.Intn(sb.MaxShortLatency()))
			} else if src.Intn(2) == 0 {
				sb.BeginLongLatency(r)
			} else {
				sb.IssueProducer(r, 1+src.Intn(sb.MaxShortLatency()))
			}
		default:
			sb.Shift()
		}
		s1, s2, d := randReg(), randReg(), randReg()
		want := sb.ReadReady(s1) && sb.ReadReady(s2) && sb.WriteReady(d)
		if got := sb.IssueReady(s1, s2, d); got != want {
			t.Fatalf("op %d: IssueReady(%v,%v,%v) = %v, singles say %v (now=%d)",
				i, s1, s2, d, got, want, sb.Now())
		}
	}
}
