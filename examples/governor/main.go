// Governor example: close the loop the paper motivates. First the planner
// picks operating points from measured sweep data (the Figure 11/12 curves
// of THIS machine's run): the EDP-optimal level, the most frugal level
// meeting a deadline, the fastest level within an energy budget. Then a
// reactive ladder governor walks a phased workload (compute burst → memory
// sweep → branchy control) on one warm IRAW core, reconfiguring the
// avoidance machinery at every step — the Section 4.1.3 flexibility doing
// real work.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"lowvcc"
	"lowvcc/internal/circuit"
	"lowvcc/internal/dvfs"
	"lowvcc/internal/sim"
	"lowvcc/internal/workload"
)

func main() {
	r := &sim.Runner{}
	r.RegisterFlags(flag.CommandLine)
	flag.Parse()

	// --- Offline planning over measured points -------------------------
	// The energy model's calibration point and the IRAW sweep are one
	// grid: simulated together, then the model renders from the first
	// aggregate.
	traces := lowvcc.StandardSuite(15000, 1)
	cal := r.CalibratedEnergy(traces)
	levels := []circuit.Millivolts{700, 600, 500, 450, 400}
	aggs, err := r.Collect(context.Background(),
		append(cal.Points, r.SweepPoints(traces, []circuit.Mode{circuit.ModeIRAW}, levels)...), nil)
	if err != nil {
		log.Fatal(err)
	}
	model, err := cal.Render(aggs[:1])
	if err != nil {
		log.Fatal(err)
	}
	ovh := sim.IRAWOverheads().EnergyOverheadFraction()
	points := make([]dvfs.PointMetrics, 0, len(levels))
	for i, v := range levels {
		agg := aggs[1+i]
		e := model.Energy(v, agg.Activity, agg.Time, ovh)
		points = append(points, dvfs.PointMetrics{
			Vcc: v, Mode: circuit.ModeIRAW, Time: agg.Time, Energy: e.Total(),
		})
	}
	planner, err := dvfs.NewPlanner(points)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("measured operating points (IRAW design):")
	for _, p := range planner.Points() {
		fmt.Printf("  %-6v time %12.0f  energy %12.0f  EDP %.3g\n", p.Vcc, p.Time, p.Energy, p.EDP())
	}
	if best, ok := planner.Pick(dvfs.MinEDP, 0); ok {
		fmt.Printf("EDP-optimal level: %v\n", best.Vcc)
	}
	ref := points[0] // 700 mV
	if best, ok := planner.Pick(dvfs.MinEnergyUnderDeadline, ref.Time*1.6); ok {
		fmt.Printf("most frugal within 1.6x the 700mV time: %v\n", best.Vcc)
	}
	if best, ok := planner.Pick(dvfs.MinTimeUnderBudget, ref.Energy*0.7); ok {
		fmt.Printf("fastest within 70%% of the 700mV energy: %v\n", best.Vcc)
	}

	// --- Reactive governance over a phased workload --------------------
	gov, err := dvfs.NewGovernor(levels)
	if err != nil {
		log.Fatal(err)
	}
	// Utilization here is issue-slot occupancy (cycles that issued at least
	// one instruction); thresholds tuned for this core's comfortable band.
	gov.UpThreshold, gov.DownThreshold = 0.48, 0.30
	phases := []lowvcc.Profile{
		lowvcc.OfficeProfile(),   // interactive: moderate demand
		lowvcc.MemBoundProfile(), // memory sweep: core mostly waits -> down
		lowvcc.SpecIntProfile(),  // compute burst: saturated -> back up
		lowvcc.SpecIntProfile(),
	}
	c := lowvcc.MustNewCore(lowvcc.DefaultConfig(gov.Level(), lowvcc.ModeIRAW))
	fmt.Println("\nreactive ladder on a phased workload:")
	for i, p := range phases {
		tr := workload.Generate(p, 25000, uint64(i%3+1))
		if _, err := c.Run(tr); err != nil { // warm pass
			log.Fatal(err)
		}
		res, err := c.Run(tr)
		if err != nil {
			log.Fatal(err)
		}
		busy := float64(res.Run.Cycles-res.Run.IssueHist[0]) / float64(res.Run.Cycles)
		next := gov.Observe(busy)
		next = gov.Observe(busy) // the governor wants sustained evidence
		fmt.Printf("  phase %-10s at %-6v IPC %.3f busy %.2f -> next level %v\n",
			p.Name, res.Plan.Vcc, res.IPC(), busy, next)
		if res.CorruptConsumed != 0 {
			log.Fatalf("phase %s consumed corrupt data", p.Name)
		}
		if err := c.Reconfigure(next); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("governor made %d transitions; all phases ran corruption-free\n", gov.Transitions())
}
