package isa

import "testing"

func TestOpProperties(t *testing.T) {
	for op := Op(0); op.Valid(); op++ {
		if Latency(op) < 1 {
			t.Errorf("%v latency %d", op, Latency(op))
		}
		if op.String() == "" {
			t.Errorf("op %d has empty name", op)
		}
	}
	if Op(200).Valid() {
		t.Fatal("invalid op reported valid")
	}
}

func TestClassPredicates(t *testing.T) {
	if !IsMem(OpLoad) || !IsMem(OpStore) || IsMem(OpALU) {
		t.Fatal("IsMem wrong")
	}
	if !IsCtrl(OpBranch) || !IsCtrl(OpCall) || !IsCtrl(OpReturn) || IsCtrl(OpFence) {
		t.Fatal("IsCtrl wrong")
	}
	for _, op := range []Op{OpALU, OpMul, OpDiv, OpFPAdd, OpFPMul, OpFPDiv, OpLoad} {
		if !WritesReg(op) {
			t.Errorf("%v should write a register", op)
		}
	}
	for _, op := range []Op{OpStore, OpBranch, OpNop, OpFence, OpCall, OpReturn} {
		if WritesReg(op) {
			t.Errorf("%v should not write a register", op)
		}
	}
}

func TestLatencyPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Latency(Op(99))
}

func TestRegValidity(t *testing.T) {
	if !Reg(0).Valid() || !Reg(NumRegs-1).Valid() {
		t.Fatal("valid regs invalid")
	}
	if Reg(NumRegs).Valid() || RegNone.Valid() {
		t.Fatal("invalid regs valid")
	}
	if Reg(3).String() != "r3" || RegNone.String() != "r-" {
		t.Fatal("reg strings wrong")
	}
}
