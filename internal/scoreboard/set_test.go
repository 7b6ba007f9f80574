package scoreboard

import (
	"testing"

	"lowvcc/internal/isa"
	"lowvcc/internal/rng"
)

// TestIssueReadySetMatchesSequentialProbes fuzzes the batched ready-set
// probe against its contract: bit i equals a one-slot IssueReady probe of
// slot i taken *after* the issues of every granted older slot are applied,
// and bits stop at the first not-ready slot (in-order issue). The fuzz
// actually applies each granted slot's issue (IssueProducer on its produced
// register, with a random latency) before checking the next bit, so the
// fresh-producer shortcut is held to the mutation it predicts.
func TestIssueReadySetMatchesSequentialProbes(t *testing.T) {
	sb := New(DefaultConfig())
	src := rng.New(0x5E7B17)
	var ops [4]IssueOp
	for i := 0; i < 40000; i++ {
		mutateScoreboard(sb, src)
		n := 1 + src.Intn(len(ops))
		for j := 0; j < n; j++ {
			d := randReg(src)
			prod := d
			if src.Intn(4) == 0 {
				prod = isa.RegNone // store/control shape: no producer
			}
			ops[j] = IssueOp{S1: randReg(src), S2: randReg(src), D: d, Prod: prod}
		}
		mask := sb.IssueReadySet(ops[:n])

		for j := 0; j < n; j++ {
			op := ops[j]
			want := sb.IssueReady(op.S1, op.S2, op.D)
			if got := mask>>uint(j)&1 == 1; got != want {
				t.Fatalf("op %d slot %d/%d: set bit = %v, sequential probe says %v (mask %04b, %+v)",
					i, j, n, got, want, mask, op)
			}
			if !want {
				if rest := mask >> uint(j); rest != 0 {
					t.Fatalf("op %d slot %d: bits %04b set past the first not-ready slot", i, j, mask)
				}
				break
			}
			if op.Prod != isa.RegNone {
				sb.IssueProducer(op.Prod, 1+src.Intn(sb.MaxShortLatency()))
			}
		}
	}
}

// TestIssueReadyPairMatchesSequentialProbes fuzzes the two-slot (dual-issue)
// shape of IssueReadySet against its contract: bit 0 equals a one-slot
// probe of the older slot A, and — whenever bit 0 is set — bit 1 equals a
// one-slot probe of the younger slot B taken *after* A's issue is applied.
// The fuzz actually applies the issue (IssueProducer on A's produced
// register) and compares against the live post-issue probe, so the overlap
// shortcut is held to the mutation it predicts.
func TestIssueReadyPairMatchesSequentialProbes(t *testing.T) {
	sb := New(DefaultConfig())
	src := rng.New(0xD0A1)
	for i := 0; i < 40000; i++ {
		mutateScoreboard(sb, src)
		a1, a2, ad := randReg(src), randReg(src), randReg(src)
		b1, b2, bd := randReg(src), randReg(src), randReg(src)
		// aProd is A's produced register: ad itself for producing ops,
		// RegNone for stores/control — both shapes the issue stage passes.
		aProd := ad
		if src.Intn(4) == 0 {
			aProd = isa.RegNone
		}

		wantA := sb.IssueReady(a1, a2, ad)
		mask := sb.IssueReadySet([]IssueOp{
			{S1: a1, S2: a2, D: ad, Prod: aProd},
			{S1: b1, S2: b2, D: bd, Prod: bd},
		})
		okA, okB := mask&1 == 1, mask>>1&1 == 1
		if okA != wantA {
			t.Fatalf("op %d: okA = %v, single probe says %v", i, okA, wantA)
		}
		if !okA {
			if okB {
				t.Fatalf("op %d: okB set although A cannot issue (mask %02b)", i, mask)
			}
			continue
		}
		// Apply A's issue exactly as the core would, then probe B.
		if aProd != isa.RegNone {
			lat := 1 + src.Intn(sb.MaxShortLatency())
			sb.IssueProducer(aProd, lat)
		}
		if wantB := sb.IssueReady(b1, b2, bd); okB != wantB {
			t.Fatalf("op %d: okB = %v, post-issue probe says %v (aProd=%v b=%v,%v,%v)",
				i, okB, wantB, aProd, b1, b2, bd)
		}
	}
}

// randReg returns a random register, RegNone one time in four.
func randReg(src *rng.Source) isa.Reg {
	if src.Intn(4) == 0 {
		return isa.RegNone
	}
	return isa.Reg(src.Intn(isa.NumRegs))
}

// TestIssueReadyMatchesSingleProbes holds the fused probe to its
// definition: IssueReady(s1, s2, d) == ReadReady(s1) && ReadReady(s2) &&
// WriteReady(d), across randomized scoreboard states.
func TestIssueReadyMatchesSingleProbes(t *testing.T) {
	sb := New(DefaultConfig())
	src := rng.New(0x5B0A)
	for i := 0; i < 40000; i++ {
		mutateScoreboard(sb, src)
		s1, s2, d := randReg(src), randReg(src), randReg(src)
		want := sb.ReadReady(s1) && sb.ReadReady(s2) && sb.WriteReady(d)
		if got := sb.IssueReady(s1, s2, d); got != want {
			t.Fatalf("op %d: IssueReady(%v,%v,%v) = %v, singles say %v (now=%d)",
				i, s1, s2, d, got, want, sb.Now())
		}
	}
}

// mutateScoreboard applies a random state transition: shifts, bulk
// advances, producers (short and long), completions, flushes and bubble
// reconfigurations.
func mutateScoreboard(sb *Scoreboard, src *rng.Source) {
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
}
