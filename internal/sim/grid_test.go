package sim

import (
	"reflect"
	"slices"
	"testing"

	"lowvcc/internal/circuit"
)

// TestGridAddDedupes: points two experiments share are held once, and
// each experiment gets its own points' grid indices back.
func TestGridAddDedupes(t *testing.T) {
	traces := digestSuite().Traces()
	r := &Runner{}
	g := &Grid{}
	bd := g.Add(r.Breakdown(traces, 500).Points)    // baseline, iraw at 500 mV
	bp := g.Add(r.BPStats(traces, 500).Points)      // iraw at 500 mV
	val := g.Add(r.Validate(traces, 500).Points)    // iraw, unsafe iraw
	cal := g.Add(r.CalibratedEnergy(traces).Points) // baseline at 600 mV
	if len(g.Points) != 4 {
		t.Fatalf("grid holds %d points, want 4", len(g.Points))
	}
	if bp[0] != bd[1] || val[0] != bd[1] || val[1] == bd[1] || cal[0] == bd[0] {
		t.Errorf("indices breakdown %v, bp %v, validate %v, calibration %v", bd, bp, val, cal)
	}
	// The same configuration over other traces is another point.
	resched := g.Add(r.CompilerResched(traces, 500, 8).Points)
	if !slices.Equal(resched[:2], bd) || resched[2] < 4 || resched[3] < 4 || len(g.Points) != 6 {
		t.Errorf("resched indices %v over a %d-point grid", resched, len(g.Points))
	}
}

// TestSweepSpecsSplit: the standard points become one sweep per (width,
// level set), carrying exactly the modes that need that set, and every
// other point stays local; together they cover the grid once.
func TestSweepSpecsSplit(t *testing.T) {
	suite := digestSuite()
	traces := suite.Traces()
	r := &Runner{}
	g := &Grid{}
	g.Add(r.Table1(traces, 500).Points)
	g.Add(r.WidthAblation(traces, []int{1, 2}, []circuit.Millivolts{600, 500}).Points)
	g.Add(r.NSweep(traces, 500, 2).Points)
	g.Add(r.CompilerResched(traces, 500, 8).Points)

	base := SweepSpec{InstsPerTrace: suite.InstsPerTrace, SeedsPerProfile: suite.SeedsPerProfile, WindowInsts: 5000}
	specs, cells, local := g.SweepSpecs(base)
	want := []SweepSpec{
		{Modes: []string{"baseline", "iraw"}, LevelsMV: []int{600, 500}, Width: 2},
		{Modes: []string{"faultybits", "extrabypass"}, LevelsMV: []int{500}, Width: 2},
		{Modes: []string{"baseline", "iraw"}, LevelsMV: []int{600, 500}, Width: 1},
	}
	for i := range want {
		want[i].InstsPerTrace, want[i].SeedsPerProfile, want[i].WindowInsts = base.InstsPerTrace, base.SeedsPerProfile, base.WindowInsts
	}
	if !reflect.DeepEqual(specs, want) {
		t.Fatalf("specs\n%+v\nwant\n%+v", specs, want)
	}
	seen := make([]int, len(g.Points))
	for s, spec := range specs {
		modes, _ := spec.CircuitModes()
		for mi, m := range modes {
			for li, v := range spec.Levels() {
				k := cells[s][mi*len(spec.Levels())+li]
				seen[k]++
				if p := g.Points[k]; p.Cfg != spec.PointConfig(v, m) || !slices.Equal(p.Traces, traces) {
					t.Errorf("spec %d cell (%v, %v) maps to point %q", s, m, v, p.Label)
				}
			}
		}
	}
	for _, k := range local {
		seen[k]++
		if p := g.Points[k]; p.Cfg.ForcedN == 0 && slices.Equal(p.Traces, traces) {
			t.Errorf("standard point %q left local", p.Label)
		}
	}
	if len(local) != 3 { // N = 2 and both rescheduled designs; N = 1 is IRAW at 500 mV
		t.Errorf("%d local points, want 3", len(local))
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("point %q covered %d times", g.Points[k].Label, n)
		}
	}
}
