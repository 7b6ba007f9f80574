// Command vccsweep sweeps the full voltage range for one or more designs
// and prints the frequency/performance/EDP series (the data behind
// Figures 11 and 12). Rows render progressively: each voltage's line is
// written the moment every design at that level has finished simulating,
// while the rest of the grid is still running.
//
//	vccsweep -insts 60000 -seeds 2
//	vccsweep -modes baseline,iraw,faultybits
//	vccsweep -insts 500000 -window 50000 -progress   # sharded long traces
//	vccsweep -server 127.0.0.1:7077                  # run on a sweepd daemon
//
// With -server the sweep executes on a sweepd daemon (and its workers)
// instead of in-process; the rendered table is bit-identical to the local
// run because either collector hands every cell to one sim.LevelFold. The
// run flags (-workers, -window, -warm, -ckpt, -journal, -retries, ...) are
// the ones every simulating command shares, registered by
// sim.Runner.RegisterFlags; with -server, -window, -warm and -width travel
// to the daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/report"
	"lowvcc/internal/service"
	"lowvcc/internal/sim"
)

func main() {
	// The CLI keeps a one-second retry backoff by default; every other
	// shared run flag defaults to the zero Runner's value.
	r := &sim.Runner{RetryBackoff: time.Second}
	r.RegisterFlags(flag.CommandLine)
	insts := flag.Int("insts", 40000, "instructions per trace")
	seeds := flag.Int("seeds", 1, "traces per workload class")
	modesFlag := flag.String("modes", "baseline,iraw", "comma-separated designs to sweep")
	csv := flag.Bool("csv", false, "emit CSV")
	server := flag.String("server", "", "run the sweep on a sweepd daemon at this address instead of in-process")
	flag.Parse()

	if err := run(r, *server, *insts, *seeds, *modesFlag, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "vccsweep:", err)
		os.Exit(1)
	}
}

// run renders the sweep from one collector: the in-process runner, or
// with -server a sweepd daemon's client, each feeding the same LevelFold.
func run(r *sim.Runner, server string, insts, seeds int, modesFlag string, csv bool) error {
	modes, err := sim.ParseModes(modesFlag)
	if err != nil {
		return err
	}
	spec := sim.SweepSpec{
		InstsPerTrace:   insts,
		SeedsPerProfile: seeds,
		WindowInsts:     r.WindowInsts,
		WarmInsts:       r.WarmInsts,
		Width:           r.Width,
	}
	for _, m := range modes {
		spec.Modes = append(spec.Modes, m.String())
	}
	var cl *service.Client
	if server != "" {
		if cl, err = service.NewClient(server); err != nil {
			return err
		}
	}

	header := []string{"Vcc"}
	for _, m := range modes {
		header = append(header, m.String()+"-ipc", m.String()+"-time", m.String()+"-freqgain")
	}
	t, err := report.NewStreamTable(os.Stdout, csv, "Vcc sweep (time in phase-at-700mV units)", header...)
	if err != nil {
		return err
	}
	// Each voltage's row renders as soon as every requested design at that
	// level has landed (rows stay in voltage order: a finished level waits
	// for slower earlier levels). With -allow-partial, failed operating
	// points render as FAIL(reason) cells and the sweep keeps going.
	failed := 0
	levels := spec.Levels()
	fold := sim.NewLevelFold(modes, levels, spec.Cells()/(len(modes)*len(levels)), func(v circuit.Millivolts, pts map[circuit.Mode]*sim.Point, fails map[circuit.Mode]*sim.CellError) error {
		row := []interface{}{v}
		for _, m := range modes {
			if ce := fails[m]; ce != nil {
				failed++
				row = append(row, "FAIL("+ce.Reason(32)+")", "-", "-")
				continue
			}
			p := pts[m].Agg
			row = append(row, p.IPC(), fmt.Sprintf("%.0f", p.Time), p.Plan.FreqGain)
		}
		return t.AddRow(row...)
	})
	if cl != nil {
		_, err = cl.Collect(context.Background(), spec, r.Observe(fold.Add))
	} else {
		_, err = r.Collect(context.Background(), spec.PointSpecs(), fold.Add)
	}
	// The failed points reached the table in their levels' fails maps.
	if err != nil && !errors.As(err, new(*sim.PartialError)) {
		return err
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "vccsweep: %d operating point(s) failed; rows marked FAIL\n", failed)
	}
	return nil
}
