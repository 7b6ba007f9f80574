// DVFS scenario (Sections 1 and 4.1.3): a mobile core moves between
// voltage levels, and IRAW avoidance is what makes the low levels usable.
//
// One grid is simulated on the shared runner (-workers bounds its pool;
// -window/-warm shard long traces): the energy model's calibration point,
// an IRAW sweep of the standard suite, and one steady-state point per
// phase (a fresh core at the phase's voltage, warmed on and then measured
// over the phase's trace). The
// sweep gives each level's time, energy and EDP, and the EDP-optimal level.
//
// Then a single core walks the phases — high-Vcc bursts and low-Vcc
// battery-saver stretches — and the IRAW machinery reconfigures at each
// transition: the scoreboard bubble, the IQ occupancy threshold, the STable
// size and the port-stall counters all follow the new level, while the
// caches carry their state from one phase to the next, exactly what a
// mobile workload sees. The
// example exits 1 if any phase consumes a corrupt value or trips the
// integrity oracle.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"lowvcc"
	"lowvcc/internal/sim"
)

func main() {
	r := &sim.Runner{}
	r.RegisterFlags(flag.CommandLine)
	insts := flag.Int("insts", 40000, "instructions per phase trace")
	flag.Parse()

	// A phone-like duty cycle: interactive burst, idle scroll, video.
	phases := []struct {
		name string
		vcc  lowvcc.Millivolts
		prof lowvcc.Profile
	}{
		{"interactive burst", 700, lowvcc.OfficeProfile()},
		{"background sync", 500, lowvcc.ServerProfile()},
		{"video decode", 475, lowvcc.MultimediaProfile()},
		{"idle housekeeping", 400, lowvcc.KernelProfile()},
		{"interactive burst", 675, lowvcc.OfficeProfile()},
	}
	traces := make([]*lowvcc.Trace, len(phases))
	for i, ph := range phases {
		traces[i] = lowvcc.GenerateTrace(ph.prof, *insts, uint64(i+1))
	}

	suite := lowvcc.StandardSuite(15000, 1)
	cal := r.CalibratedEnergy(suite)
	levels := []lowvcc.Millivolts{700, 600, 500, 450, 400}
	specs := append(cal.Points, r.SweepPoints(suite, []lowvcc.Mode{lowvcc.ModeIRAW}, levels)...)
	for i, ph := range phases {
		p := r.SweepPoints(traces[i:i+1], []lowvcc.Mode{lowvcc.ModeIRAW}, []lowvcc.Millivolts{ph.vcc})[0]
		p.Label = ph.name
		specs = append(specs, p)
	}
	aggs, err := r.Collect(context.Background(), specs, nil)
	if err != nil {
		log.Fatal(err)
	}
	model, err := cal.Render(aggs[:1])
	if err != nil {
		log.Fatal(err)
	}
	sweep, steady := aggs[1:1+len(levels)], aggs[1+len(levels):]

	ovh := sim.IRAWOverheads().EnergyOverheadFraction()
	fmt.Println("measured operating points (IRAW design, standard suite):")
	best, bestEDP := 0, 0.0
	for i, v := range levels {
		energy := model.Energy(v, sweep[i].Activity, sweep[i].Time, ovh).Total()
		edp := sweep[i].Time * energy
		fmt.Printf("  %-6v time %12.0f  energy %12.0f  EDP %.3g\n", v, sweep[i].Time, energy, edp)
		if i == 0 || edp < bestEDP {
			best, bestEDP = i, edp
		}
	}
	fmt.Printf("EDP-optimal level: %v\n\n", levels[best])

	// The DVFS walk: one persistent core, built at the first phase's point
	// and reconfigured per phase.
	c := lowvcc.MustNewCore(specs[len(specs)-len(phases)].Cfg)
	fmt.Println("phase               Vcc    N  freq-gain  IPC    steady-IPC  time(a.u.)")
	var total float64
	for i, ph := range phases {
		if err := c.Reconfigure(ph.vcc); err != nil {
			log.Fatal(err)
		}
		res, err := c.Run(traces[i])
		if err != nil {
			log.Fatal(err)
		}
		plan := res.Plan
		fmt.Printf("%-18s  %-5v  %d  %-9.2f  %.3f  %.3f       %.0f\n",
			ph.name, ph.vcc, plan.StabilizeCycles, plan.FreqGain,
			res.IPC(), steady[i].IPC(), res.Time)
		total += res.Time
		for _, got := range []*lowvcc.Result{res, steady[i]} {
			if got.CorruptConsumed != 0 || got.IntegrityErrors != 0 {
				log.Fatalf("phase %q at %v: %d corrupt values consumed, %d integrity errors",
					ph.name, ph.vcc, got.CorruptConsumed, got.IntegrityErrors)
			}
		}
	}
	fmt.Printf("total time: %.0f a.u. — zero corruption across %d reconfigurations\n",
		total, len(phases))
	fmt.Println("steady-IPC is each phase in isolation (fresh core warmed on the")
	fmt.Println("phase's own trace); the DVFS walk runs each phase once, on the")
	fmt.Println("state the previous phase left behind (cold for the first).")
}
