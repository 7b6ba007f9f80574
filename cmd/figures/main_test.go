package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"lowvcc/internal/service"
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
// instructions, and reports how many cells the figures declare.
func allGrid() (grid *sim.Grid, declared int) {
	g := &gen{r: &sim.Runner{}, breakdownMV: 575, spec: sim.SweepSpec{InstsPerTrace: 1500, SeedsPerProfile: 1}}
	g.suite = sync.OnceValue(g.spec.Traces)
	grid = &sim.Grid{}
	for _, s := range steps {
		pts := s.fig(g).points
		declared += len(pts) * len(g.suite())
		grid.Add(pts)
	}
	return grid, declared
}

// localDerived collects -fig all's grid on a local runner and counts its
// cells and the derived ones among them.
func localDerived(t *testing.T) (cells, derived int) {
	grid, _ := allGrid()
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
	return cells, derived
}

// TestAllGridDerivedCells pins how much of -fig all's grid the stream
// derives instead of simulating: of its 378 distinct cells (770 declared
// by the figures), 49 share a trace and an engine input (core.EngineKey)
// with a lower-index cell — IRAW at 700 to 600 mV and at width 1 and 4 at
// 600 mV (inactive, so timed as baseline). The N=1 point of the N sweep
// at 500 mV (the natural N there) is the IRAW point at 500 mV itself, one
// cell per trace.
func TestAllGridDerivedCells(t *testing.T) {
	if _, declared := allGrid(); declared != 770 {
		t.Fatalf("the figures declare %d cells, want 770", declared)
	}
	if cells, derived := localDerived(t); cells != 378 || derived != 49 {
		t.Fatalf("%d cells, %d derived; want 378 and 49", cells, derived)
	}
}

// TestAllCSVServer: `figures -fig all -csv -server` against a daemon with
// in-process slots prints the local run's bytes, and the whole grid,
// variant points included, travels as one sweep: the daemon simulates or
// derives all 378 cells, deriving as many as the local run does.
func TestAllCSVServer(t *testing.T) {
	srv, _, err := service.NewServer(service.ServerOpts{
		SchedulerOpts: service.SchedulerOpts{JournalDir: t.TempDir()},
		Workers:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer srv.Scheduler().Close()
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{"-fig", "all", "-csv", "-insts", "1500", "-seeds", "1", "-server", ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/all.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("figures -server output differs from testdata/all.csv (the local run's bytes)")
	}

	cl, err := service.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Status(t.Context(), "sweep-1")
	if err != nil {
		t.Fatal(err)
	}
	_, derived := localDerived(t)
	if st.State != "done" || st.Total != 378 || st.Done != 378 || st.Derived != derived {
		t.Fatalf("daemon sweep %+v, want 378 cells done, %d derived", st, derived)
	}
	if _, err := cl.Status(t.Context(), "sweep-2"); err == nil {
		t.Fatal("figures submitted more than one sweep")
	}
}
