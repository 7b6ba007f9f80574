package main

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/sim"
)

// TestAllCSVGolden holds every figure's bytes: `figures -fig all -csv` at a
// small size must reproduce testdata/all.csv, recorded from the command
// before its figures shared one grid.
func TestAllCSVGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "all", "-csv", "-insts", "1500", "-seeds", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/all.csv")
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(wantLines)) {
		if i >= len(got) || i >= len(wantLines) || got[i] != wantLines[i] {
			t.Fatalf("output differs from testdata/all.csv at line %d:\n got %q\nwant %q",
				i+1, strings.Join(got[i:min(i+1, len(got))], ""), strings.Join(wantLines[i:min(i+1, len(wantLines))], ""))
		}
	}
}

// allGrid builds -fig all's grid at one seed per profile of 1500
// instructions, and reports how many cells the figures declare and how
// many traces each point runs.
func allGrid() (grid *sim.Grid, declared, traces int) {
	g := &gen{r: &sim.Runner{}, breakdownMV: 575, spec: sim.SuiteSpec{InstsPerTrace: 1500, SeedsPerProfile: 1}}
	g.suite = sync.OnceValue(g.spec.Traces)
	traces = len(g.suite())
	grid = &sim.Grid{}
	for _, s := range steps {
		pts := s.fig(g).points
		declared += len(pts) * traces
		grid.Add(pts)
	}
	return grid, declared, traces
}

// TestAllGridDerivedCells pins how much of -fig all's grid the stream
// derives instead of simulating: of its 378 distinct cells, 49 share a
// trace and an engine input (core.EngineKey) with a lower-index cell —
// IRAW at 700 to 600 mV and at width 1 and 4 at 600 mV (inactive, so
// timed as baseline). The N=1 point of the N sweep at 500 mV (the natural
// N there) is the IRAW point at 500 mV itself, one cell per trace.
func TestAllGridDerivedCells(t *testing.T) {
	grid, _, _ := allGrid()
	cells, derived := 0, 0
	_, err := (&sim.Runner{}).Collect(context.Background(), grid.Points, func(u sim.PointUpdate) error {
		cells++
		if u.Derived != "" {
			derived++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cells != 378 || derived != 49 {
		t.Fatalf("%d cells, %d derived; want 378 and 49", cells, derived)
	}
}

// TestAllGridSplit pins how -fig all's grid divides at one seed per
// profile: the figures declare 770 cells, 378 of them distinct; -server
// sends four sweeps to the daemon and keeps the 14 variant points local,
// and the two parts cover the distinct cells exactly.
func TestAllGridSplit(t *testing.T) {
	grid, declared, traces := allGrid()
	if distinct := len(grid.Points) * traces; declared != 770 || distinct != 378 {
		t.Fatalf("declared %d cells, %d distinct; want 770 and 378", declared, distinct)
	}
	specs, _, local := grid.SweepSpecs(sim.SweepSpec{InstsPerTrace: 1500, SeedsPerProfile: 1})
	var all []int
	for _, v := range circuit.Levels() {
		all = append(all, int(v))
	}
	want := []sim.SweepSpec{
		{Modes: []string{"baseline", "iraw"}, LevelsMV: all, Width: 2},
		{Modes: []string{"faultybits", "extrabypass"}, LevelsMV: []int{500}, Width: 2},
		{Modes: []string{"baseline", "iraw"}, LevelsMV: []int{600, 500, 400}, Width: 1},
		{Modes: []string{"baseline", "iraw"}, LevelsMV: []int{600, 500, 400}, Width: 4},
	}
	daemon := 0
	for i := range specs {
		daemon += specs[i].Cells()
		specs[i].InstsPerTrace, specs[i].SeedsPerProfile = 0, 0
	}
	if !reflect.DeepEqual(specs, want) {
		t.Errorf("daemon sweeps\n%+v\nwant\n%+v", specs, want)
	}
	if len(local) != 14 || daemon+len(local)*traces != 378 {
		t.Errorf("daemon %d cells + %d local points of %d traces, want 280 + 14 points = 378 cells", daemon, len(local), traces)
	}
}
