// Quickstart: build a baseline core and an IRAW core at 500 mV, run the
// same workload on both, and report the paper's headline effect — the
// frequency boost from interrupting SRAM writes turns into end-to-end
// speedup despite the avoidance stalls.
//
// Both operating points fan out together across the experiment pool
// (-workers bounds it) — the same parallel path every sweep uses, with the
// same warm-up + measure methodology RunWarm applies.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"lowvcc"
	"lowvcc/internal/circuit"
	"lowvcc/internal/sim"
)

func main() {
	r := &sim.Runner{}
	r.RegisterFlags(flag.CommandLine)
	flag.Parse()

	tr := lowvcc.GenerateTrace(lowvcc.SpecIntProfile(), 100000, 1)

	const vcc = lowvcc.Millivolts(500)
	sweep, err := r.Sweep(context.Background(), []*lowvcc.Trace{tr},
		[]circuit.Mode{lowvcc.ModeBaseline, lowvcc.ModeIRAW},
		[]circuit.Millivolts{vcc})
	if err != nil {
		log.Fatal(err)
	}
	base := sweep[lowvcc.ModeBaseline][vcc].Agg
	iraw := sweep[lowvcc.ModeIRAW][vcc].Agg

	fmt.Printf("workload: %s (%d instructions) at %v\n", tr.Name, tr.Len(), vcc)
	fmt.Printf("baseline: cycle %.3f a.u., IPC %.3f, time %.0f\n",
		base.Plan.CycleTime, base.IPC(), base.Time)
	fmt.Printf("IRAW:     cycle %.3f a.u., IPC %.3f, time %.0f (N=%d)\n",
		iraw.Plan.CycleTime, iraw.IPC(), iraw.Time, iraw.Plan.StabilizeCycles)
	fmt.Printf("frequency gain: %.2fx   speedup: %.2fx\n",
		iraw.Plan.FreqGain, base.Time/iraw.Time)
	fmt.Printf("instructions delayed by RF IRAW avoidance: %.1f%%\n",
		100*iraw.Run.DelayedFraction())
	fmt.Printf("corrupt data consumed: %d (must be 0)\n", iraw.CorruptConsumed)
	for _, res := range []*lowvcc.Result{base, iraw} {
		if res.CorruptConsumed != 0 || res.IntegrityErrors != 0 {
			log.Fatalf("%v: %d corrupt values consumed, %d integrity errors (both must be 0)",
				res.Plan.Mode, res.CorruptConsumed, res.IntegrityErrors)
		}
	}
}
