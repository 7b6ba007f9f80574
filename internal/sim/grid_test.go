package sim

import (
	"encoding/json"
	"slices"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
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

// TestGridSpecRoundTrip: Grid.Spec writes the grid as one sweep of
// explicit points, variants included (forced N, rescheduled traces), that
// survives the wire and expands back to the grid's own points, traces
// and all; a point over traces that are not the suite is refused.
func TestGridSpecRoundTrip(t *testing.T) {
	suite := digestSuite()
	traces := suite.Traces()
	r := &Runner{}
	g := &Grid{}
	g.Add(r.Table1(traces, 500).Points)
	g.Add(r.WidthAblation(traces, []int{1, 2}, []circuit.Millivolts{600, 500}).Points)
	g.Add(r.NSweep(traces, 500, 2).Points)
	g.Add(r.CompilerResched(traces, 500, 8).Points)

	spec, err := g.Spec(SweepSpec{InstsPerTrace: suite.InstsPerTrace, SeedsPerProfile: suite.SeedsPerProfile, WindowInsts: 5000})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var wire SweepSpec
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if err := wire.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := wire.Cells(), len(g.Points)*len(traces); got != want {
		t.Fatalf("Cells() = %d, want %d", got, want)
	}
	got := wire.PointSpecs()
	if len(got) != len(g.Points) {
		t.Fatalf("%d points, want %d", len(got), len(g.Points))
	}
	for i, p := range g.Points {
		if got[i].Label != p.Label || got[i].Cfg != p.Cfg || !sameTraces(got[i].Traces, p.Traces) {
			t.Errorf("point %d: %q over %d traces, want %q", i, got[i].Label, len(got[i].Traces), p.Label)
		}
	}

	g.Add([]PointSpec{{Label: "other suite", Cfg: g.Points[0].Cfg, Traces: traces[:1]}})
	if _, err := g.Spec(wire); err == nil {
		t.Error("Spec accepted a point over a trace list that is not the suite")
	}
}

// TestGridSpecFullReschedMemo: Grid.Spec writes a rescheduled point from
// the trace set it was declared with, not by rescheduling the suite again
// and comparing traces, so it holds once workload.Reschedule's memo is
// full and each call builds a fresh trace (as with -seeds 37 or more).
func TestGridSpecFullReschedMemo(t *testing.T) {
	p := workload.Profiles()[0]
	for i := range 300 {
		workload.Reschedule(workload.Generate(p, 16, uint64(i)+1), 8)
	}
	suite := SuiteSpec{InstsPerTrace: 301, SeedsPerProfile: 1}
	g := &Grid{}
	g.Add((&Runner{}).CompilerResched(suite.Traces(), 500, 8).Points)
	spec, err := g.Spec(SweepSpec{InstsPerTrace: suite.InstsPerTrace, SeedsPerProfile: suite.SeedsPerProfile})
	if err != nil {
		t.Fatal(err)
	}
	if set := (TraceSet{Transform: "reschedule", MinGap: 8}); spec.Points[2].Traces != set || spec.Points[3].Traces != set || spec.Points[0].Traces != (TraceSet{}) {
		t.Errorf("trace sets %+v, want the suite twice then rescheduled twice", spec.Points)
	}
}

// sameTraces reports whether a and b hold the same traces in order, by
// name and instructions: once workload.Reschedule's memo is full, each
// call builds its trace afresh instead of sharing one.
func sameTraces(a, b []*trace.Trace) bool {
	return slices.EqualFunc(a, b, func(x, y *trace.Trace) bool { return x.Name == y.Name && slices.Equal(x.Insts, y.Insts) })
}
