// Memory-bound study: the paper notes performance gains trail frequency
// gains partly because "off-chip memory latency remains constant"
// (Section 5.2, effect i). This example runs a cache-hostile streaming
// workload next to a compute workload and shows the IRAW speedup shrinking
// as the memory-bound fraction grows — the faster clock just waits more
// cycles for the same nanoseconds of DRAM. It also surfaces the Store
// Table at work: forwards and store replays on the store-heavy stream.
//
// All six (design, workload) cells fan out across the experiment pool
// (-workers bounds it; -window/-warm shard long traces), and per-trace
// results come back in workload order. The example doubles as a smoke
// check of the engine's fast paths: the whole sweep runs once on the
// reference engine (Config.DisableFastPaths: every cycle stepped, full
// cache scans) and once on the fast engine, the example exits non-zero
// unless the results are bit-identical, and the simulated instructions
// per wall-clock second are printed for both — only the wall clock moves.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"reflect"
	"time"

	"lowvcc"
	"lowvcc/internal/sim"
)

func main() {
	r := &sim.Runner{}
	r.RegisterFlags(flag.CommandLine)
	flag.Parse()

	const vcc = lowvcc.Millivolts(450)
	workloads := []lowvcc.Profile{
		lowvcc.SpecIntProfile(),
		lowvcc.WorkstationProfile(),
		lowvcc.MemBoundProfile(),
	}
	traces := make([]*lowvcc.Trace, len(workloads))
	totalInsts := 0
	for i, p := range workloads {
		traces[i] = lowvcc.GenerateTrace(p, 60000, 9)
		totalInsts += traces[i].Len()
	}

	// sweep runs the baseline and IRAW points over every trace, returning
	// the per-trace results and the measured-instruction throughput (the
	// unsharded path additionally executes a warm-up pass per trace that
	// this rate deliberately does not count — it is a relative smoke
	// metric, not the per-pass insts/s of benchmark/'s engine-membound
	// workload).
	sweep := func(disableFastPaths bool) (bases, iraws []*lowvcc.Result, instsPerSec float64) {
		start := time.Now()
		w := r.Width
		if w == 0 {
			w = 2 // the modelled default; DefaultConfigWidth(…, 2) == DefaultConfig
		}
		baseCfg := lowvcc.DefaultConfigWidth(vcc, lowvcc.ModeBaseline, w)
		irawCfg := lowvcc.DefaultConfigWidth(vcc, lowvcc.ModeIRAW, w)
		baseCfg.DisableFastPaths = disableFastPaths
		irawCfg.DisableFastPaths = disableFastPaths
		bases, _, err := r.RunPoint(context.Background(), baseCfg, traces)
		if err != nil {
			log.Fatal(err)
		}
		iraws, _, err = r.RunPoint(context.Background(), irawCfg, traces)
		if err != nil {
			log.Fatal(err)
		}
		return bases, iraws, 2 * float64(totalInsts) / time.Since(start).Seconds()
	}

	refBases, refIraws, slowRate := sweep(true)
	bases, iraws, fastRate := sweep(false)
	if !reflect.DeepEqual(refBases, bases) || !reflect.DeepEqual(refIraws, iraws) {
		log.Fatal("the fast engine's results differ from the reference engine's")
	}

	fmt.Printf("at %v (frequency gain %.2fx):\n\n", vcc,
		lowvcc.DelayModel().FreqGain(vcc))
	fmt.Println("workload     UL1-missrate  mem-stall  speedup  STable-fwd  replays")
	for i, p := range workloads {
		base, iraw := bases[i], iraws[i]
		missRate := 0.0
		if iraw.UL1.Accesses > 0 {
			missRate = float64(iraw.UL1.Misses) / float64(iraw.UL1.Accesses)
		}
		memStall := iraw.Run.StallFraction(6) // stats.StallMemory
		fmt.Printf("%-12s %8.1f%%  %8.1f%%  %6.2fx  %10d  %7d\n",
			p.Name, 100*missRate, 100*memStall, base.Time/iraw.Time,
			iraw.Mem.STableForwards, iraw.Mem.RepairedDestructions)
	}
	fmt.Println("\nthe cache-hostile stream keeps the lowest speedup: its off-chip")
	fmt.Println("portion is constant-time DRAM, which the frequency gain cannot")
	fmt.Println("touch — Section 5.2's effect (i) in isolation.")

	fmt.Printf("\nsimulator throughput, measured insts/s (identical results, reference -> fast engine):\n")
	fmt.Printf("  reference: %10.0f\n  fast:      %10.0f  (%.2fx)\n",
		slowRate, fastRate, fastRate/slowRate)
}
