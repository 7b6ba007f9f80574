package stats

import "testing"

func TestStallKindStrings(t *testing.T) {
	if StallRFIRAW.String() != "rf-iraw" || StallIQGate.String() != "iq-gate" {
		t.Fatal("stall names wrong")
	}
	if StallKind(99).String() != "StallKind(99)" {
		t.Fatal("unknown kind string wrong")
	}
}

func TestRunDerivedMetrics(t *testing.T) {
	r := Run{Instructions: 1000, Cycles: 2000, DelayedByRFIRAW: 132}
	r.IssueStalls[StallRFIRAW] = 170
	r.IssueStalls[StallIQGate] = 10
	if r.IPC() != 0.5 {
		t.Fatalf("IPC = %v", r.IPC())
	}
	if r.StallFraction(StallRFIRAW) != 0.085 {
		t.Fatalf("StallFraction = %v", r.StallFraction(StallRFIRAW))
	}
	if r.DelayedFraction() != 0.132 {
		t.Fatalf("DelayedFraction = %v", r.DelayedFraction())
	}
	var zero Run
	if zero.IPC() != 0 || zero.StallFraction(StallRAW) != 0 || zero.DelayedFraction() != 0 {
		t.Fatal("zero-run metrics not zero")
	}
}

func TestRunAdd(t *testing.T) {
	a := Run{Instructions: 10, Cycles: 20, DelayedByRFIRAW: 1, IssuedNOOPs: 2}
	a.IssueStalls[StallRAW] = 5
	a.IssueHist[2] = 7
	b := Run{Instructions: 30, Cycles: 40, DelayedByRFIRAW: 3, IssuedNOOPs: 4}
	b.IssueStalls[StallRAW] = 6
	b.IssueHist[2] = 1
	a.Add(&b)
	if a.Instructions != 40 || a.Cycles != 60 || a.DelayedByRFIRAW != 4 ||
		a.IssuedNOOPs != 6 || a.IssueStalls[StallRAW] != 11 || a.IssueHist[2] != 8 {
		t.Fatalf("Add wrong: %+v", a)
	}
}
