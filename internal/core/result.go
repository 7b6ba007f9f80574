package core

import (
	"lowvcc/internal/cache"
	"lowvcc/internal/circuit"
	"lowvcc/internal/energy"
	"lowvcc/internal/predictor"
	"lowvcc/internal/stats"
)

// Result reports one trace's simulation.
type Result struct {
	TraceName string
	Plan      circuit.ClockPlan

	Run stats.Run

	// Time is Cycles x CycleTime in the global time unit (one clock phase
	// at 700 mV = 1.0).
	Time float64

	// Violation accounting (ground truth from the sram substrate).
	RFViolations         uint64
	CacheViolations      uint64
	CorruptConsumed      uint64
	IntegrityErrors      uint64
	RepairedDestructions uint64

	// Predictor statistics (potential corruptions, RSB conflicts).
	BP predictor.Stats

	// Memory-system statistics.
	Mem        cache.HierarchyStats
	IL0, DL0   cache.Stats
	UL1        cache.Stats
	ITLB, DTLB cache.Stats

	// Activity is the census for the energy model.
	Activity energy.Activity

	// NOOPsInjected counts drain NOOPs added to the IQ.
	NOOPsInjected uint64
}

// IPC returns retired program instructions per cycle.
func (r *Result) IPC() float64 { return r.Run.IPC() }

// Replan returns a copy of r re-stamped with clock plan p: Plan = p and
// Time = Cycles x p.CycleTime, the formula every Result is built with.
// It is exact only when p is the plan of a configuration whose EngineKey
// equals that of the configuration r was simulated under.
func (r *Result) Replan(p circuit.ClockPlan) *Result {
	out := *r
	out.Plan = p
	out.Time = float64(out.Run.Cycles) * p.CycleTime
	return &out
}

// MergeResults aggregates per-trace results into suite totals (cycles and
// instructions add; Time adds; rates derive from the sums).
func MergeResults(results []*Result) *Result {
	if len(results) == 0 {
		return &Result{}
	}
	agg := &Result{TraceName: "suite", Plan: results[0].Plan}
	for _, r := range results {
		agg.Run.Add(&r.Run)
		agg.Time += r.Time
		agg.RFViolations += r.RFViolations
		agg.CacheViolations += r.CacheViolations
		agg.CorruptConsumed += r.CorruptConsumed
		agg.IntegrityErrors += r.IntegrityErrors
		agg.RepairedDestructions += r.RepairedDestructions
		agg.NOOPsInjected += r.NOOPsInjected

		agg.BP.Predictions += r.BP.Predictions
		agg.BP.Mispredicts += r.BP.Mispredicts
		agg.BP.PotentialCorruptions += r.BP.PotentialCorruptions
		agg.BP.ReturnPredictions += r.BP.ReturnPredictions
		agg.BP.ReturnMispredicts += r.BP.ReturnMispredicts
		agg.BP.RSBConflicts += r.BP.RSBConflicts
		agg.BP.RSBStallCycles += r.BP.RSBStallCycles

		agg.Mem.Loads += r.Mem.Loads
		agg.Mem.Stores += r.Mem.Stores
		agg.Mem.Fetches += r.Mem.Fetches
		agg.Mem.TLBWalks += r.Mem.TLBWalks
		agg.Mem.STableForwards += r.Mem.STableForwards
		agg.Mem.RepairedDestructions += r.Mem.RepairedDestructions
		agg.Mem.CorruptConsumed += r.Mem.CorruptConsumed
		agg.Mem.IntegrityErrors += r.Mem.IntegrityErrors
		agg.Mem.DL0ReplayStallCycles += r.Mem.DL0ReplayStallCycles

		addCache(&agg.IL0, &r.IL0)
		addCache(&agg.DL0, &r.DL0)
		addCache(&agg.UL1, &r.UL1)
		addCache(&agg.ITLB, &r.ITLB)
		addCache(&agg.DTLB, &r.DTLB)

		addActivity(&agg.Activity, &r.Activity)
	}
	return agg
}

// MergeWindowResults stitches the per-window Results of one sharded trace
// (in window order) into a single trace-level Result carrying the parent
// trace's name. It differs from MergeResults in two ways that matter for
// window stitching:
//
//   - Time is recomputed from the stitched cycle total and the shared clock
//     plan, so the stitch is independent of per-window float summation and
//     bit-identical to what a single run over the same cycles would report;
//   - DisabledLines is a per-core constant (the Faulty-Bits fault map), not
//     a flow counter: every window reports the same map, so the stitched
//     result keeps one copy instead of summing.
//
// With a single window covering the whole trace the output equals the
// window's Result exactly (golden-tested against a whole-trace run).
func MergeWindowResults(traceName string, windows []*Result) *Result {
	if len(windows) == 1 {
		res := *windows[0]
		res.TraceName = traceName
		return &res
	}
	agg := MergeResults(windows)
	agg.TraceName = traceName
	if len(windows) > 0 {
		agg.Time = float64(agg.Run.Cycles) * agg.Plan.CycleTime
		agg.IL0.DisabledLines = windows[0].IL0.DisabledLines
		agg.DL0.DisabledLines = windows[0].DL0.DisabledLines
		agg.UL1.DisabledLines = windows[0].UL1.DisabledLines
		agg.ITLB.DisabledLines = windows[0].ITLB.DisabledLines
		agg.DTLB.DisabledLines = windows[0].DTLB.DisabledLines
	}
	return agg
}

func addCache(dst, src *cache.Stats) {
	dst.Accesses += src.Accesses
	dst.Hits += src.Hits
	dst.Misses += src.Misses
	dst.Fills += src.Fills
	dst.Evictions += src.Evictions
	dst.DirtyEvicts += src.DirtyEvicts
	dst.FillStallCycles += src.FillStallCycles
	dst.DisabledLines += src.DisabledLines
}

func addActivity(dst, src *energy.Activity) {
	dst.Instructions += src.Instructions
	dst.IL0Accesses += src.IL0Accesses
	dst.DL0Accesses += src.DL0Accesses
	dst.UL1Accesses += src.UL1Accesses
	dst.TLBAccesses += src.TLBAccesses
	dst.RFReads += src.RFReads
	dst.RFWrites += src.RFWrites
	dst.IQOps += src.IQOps
	dst.BPAccesses += src.BPAccesses
	dst.ExecOps += src.ExecOps
	dst.MemAccesses += src.MemAccesses
}
