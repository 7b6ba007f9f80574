// Command irawsim runs a single simulation: one workload (a named profile
// or a trace file) on one core configuration, printing the performance
// counters and violation accounting.
//
//	irawsim -mv 500 -mode iraw -profile specint -insts 100000
//	irawsim -mv 450 -mode baseline -trace foo.trc
package main

import (
	"flag"
	"fmt"
	"os"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/report"
	"lowvcc/internal/sim"
	"lowvcc/internal/stats"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

func main() {
	mv := flag.Int("mv", 500, "supply voltage in millivolts (400..700, step 25)")
	mode := flag.String("mode", "iraw", "design: baseline, iraw, faultybits, extrabypass")
	profile := flag.String("profile", "specint", "workload profile (specint, specfp, kernel, multimedia, office, server, workstation, membound)")
	traceFile := flag.String("trace", "", "trace file (overrides -profile)")
	insts := flag.Int("insts", 100000, "instructions to generate (with -profile)")
	seed := flag.Uint64("seed", 1, "generation seed")
	warm := flag.Bool("warm", true, "run one untimed warm-up pass first")
	forcedN := flag.Int("n", 0, "force stabilization cycles (0 = derive from Vcc)")
	unsafe := flag.Bool("unsafe", false, "disable avoidance mechanisms (validation mode)")
	flag.Parse()

	if err := run(*mv, *mode, *profile, *traceFile, *insts, *seed, *warm, *forcedN, *unsafe); err != nil {
		fmt.Fprintln(os.Stderr, "irawsim:", err)
		os.Exit(1)
	}
}

func run(mv int, modeName, profName, traceFile string, insts int, seed uint64, warm bool, forcedN int, unsafe bool) error {
	mode, err := sim.ParseMode(modeName)
	if err != nil {
		return err
	}
	var tr *trace.Trace
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if tr, err = trace.Read(f); err != nil {
			return err
		}
	} else {
		p, err := workload.ProfileByName(profName)
		if err != nil {
			return err
		}
		tr = workload.Generate(p, insts, seed)
	}

	cfg := core.DefaultConfig(circuit.Millivolts(mv), mode)
	cfg.ForcedN = forcedN
	cfg.DisableAvoidance = unsafe
	c, err := core.New(cfg)
	if err != nil {
		return err
	}
	if warm {
		if _, err := c.Run(tr); err != nil {
			return err
		}
	}
	res, err := c.Run(tr)
	if err != nil {
		return err
	}

	plan := res.Plan
	t := report.NewTable(fmt.Sprintf("%s @ %v, %v design", tr.Name, plan.Vcc, plan.Mode), "metric", "value")
	t.AddRow("cycle time (a.u.)", plan.CycleTime)
	t.AddRow("IRAW active", fmt.Sprintf("%v (N=%d)", plan.IRAWActive, plan.StabilizeCycles))
	t.AddRow("frequency gain vs baseline", plan.FreqGain)
	t.AddRow("instructions", res.Run.Instructions)
	t.AddRow("cycles", res.Run.Cycles)
	t.AddRow("IPC", res.IPC())
	t.AddRow("execution time (a.u.)", res.Time)
	t.AddRow("delayed by RF IRAW", report.Pct(res.Run.DelayedFraction()))
	for _, k := range []stats.StallKind{stats.StallRFIRAW, stats.StallIQGate, stats.StallDL0IRAW,
		stats.StallOtherIRAW, stats.StallRAW, stats.StallMemory, stats.StallStructural, stats.StallFetchEmpty} {
		t.AddRow("stall "+k.String(), report.Pct(res.Run.StallFraction(k)))
	}
	t.AddRow("DL0 hit rate", report.Pct(rate(res.DL0.Hits, res.DL0.Accesses)))
	t.AddRow("UL1 hit rate", report.Pct(rate(res.UL1.Hits, res.UL1.Accesses)))
	t.AddRow("BP mispredict rate", report.Pct(rate(res.BP.Mispredicts, res.BP.Predictions)))
	t.AddRow("STable forwards", res.Mem.STableForwards)
	t.AddRow("repaired destructions", res.RepairedDestructions)
	t.AddRow("violations (RF/cache)", fmt.Sprintf("%d/%d", res.RFViolations, res.CacheViolations))
	t.AddRow("corrupt data consumed", res.CorruptConsumed)
	t.AddRow("integrity errors", res.IntegrityErrors)
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	// With avoidance on, no read may observe a stabilizing entry; -unsafe
	// turns avoidance off precisely to show such reads.
	if !unsafe && (res.CorruptConsumed != 0 || res.IntegrityErrors != 0) {
		return fmt.Errorf("avoidance failed: %d corrupt values consumed, %d integrity errors",
			res.CorruptConsumed, res.IntegrityErrors)
	}
	return nil
}

func rate(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
