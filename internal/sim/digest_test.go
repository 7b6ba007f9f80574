package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"lowvcc/internal/circuit"
)

// The pinned digests below hash each experiment's rows, one fmt.Sprint
// line per row, on a 3000-instruction one-seed suite. They were recorded
// before the experiments became point declarations plus renders, so any
// change to an experiment's points, their order or its render arithmetic
// fails here.

func digestSuite() SuiteSpec { return SuiteSpec{InstsPerTrace: 3000, SeedsPerProfile: 1} }

func checkRowsDigest(t *testing.T, rows []string, want string) {
	t.Helper()
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintln(h, r)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("rows digest %s, want %s; rows:\n%v", got, want, rows)
	}
}

func TestFigure12Digest(t *testing.T) {
	f12, err := (&Runner{}).Figure12(digestSuite().Traces()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, x := range f12 {
		rows = append(rows, fmt.Sprint(x.Vcc, x.RelDelay, x.RelEnergy, x.RelEDP,
			x.BaseEnergy.Dynamic, x.BaseEnergy.Leakage, x.IRAWEnergy.Dynamic, x.IRAWEnergy.Leakage,
			x.BaseTime, x.IRAWTime))
	}
	checkRowsDigest(t, rows, "5c25cb2945969a354e399f1d422ca135daf5b4e61f2506a802bd392c8543c90e")
}

func TestBPStatsDigest(t *testing.T) {
	bp, err := (&Runner{}).BPStats(digestSuite().Traces(), 500).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(bp.PotentialCorruptions) / float64(max(bp.Predictions, 1))
	checkRowsDigest(t, []string{fmt.Sprint(rate, bp.RSBConflicts, bp.ReturnPredictions)},
		"a83a027427e10d5d2b6fa9380385d90e04923b76b51a03480969e4d1447d57e5")
}

func TestWidthAblationDigest(t *testing.T) {
	wa, err := (&Runner{}).WidthAblation(digestSuite().Traces(), []int{1, 2, 4}, []circuit.Millivolts{600, 500, 400}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, x := range wa {
		rows = append(rows, fmt.Sprint(x.Width, x.Vcc, x.IPCBase, x.IPCIRAW, x.PerfGain, x.WidthGain))
	}
	checkRowsDigest(t, rows, "d497dc000d7bb03ae7e39ef3eb9e7e4d936c351064ef6cfa46fc22d236b37674")
}

func TestCombinedFaultyDigest(t *testing.T) {
	cf, err := (&Runner{}).CombinedFaulty(digestSuite().Traces(), []circuit.Millivolts{500, 450, 400}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, x := range cf {
		rows = append(rows, fmt.Sprint(x.Vcc, x.IRAWFreqGain, x.CombinedFreqGain, x.IRAWPerfGain, x.CombinedPerfGain, x.DisabledLines))
	}
	checkRowsDigest(t, rows, "2cfc1bc703b57f7e63fbf62b6ca64543c71572d91fa6542ddc4f28b1b7e0b39a")
}
