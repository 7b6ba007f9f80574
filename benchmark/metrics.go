package main

import (
	"strings"

	"lowvcc/internal/stats"
)

// stallOrder and stallMetricNames name the stall fractions of the model
// counts, in the order stats.StallKind defines them.
var stallOrder = []stats.StallKind{
	stats.StallRFIRAW, stats.StallIQGate, stats.StallDL0IRAW, stats.StallOtherIRAW,
	stats.StallRAW, stats.StallMemory, stats.StallStructural, stats.StallFetchEmpty, stats.StallDrain,
}

var stallMetricNames = map[stats.StallKind]string{
	stats.StallRFIRAW:     "core.stall_rf_iraw_frac",
	stats.StallIQGate:     "core.stall_iq_gate_frac",
	stats.StallDL0IRAW:    "core.stall_dl0_iraw_frac",
	stats.StallOtherIRAW:  "core.stall_other_iraw_frac",
	stats.StallRAW:        "core.stall_raw_frac",
	stats.StallMemory:     "core.stall_memory_frac",
	stats.StallStructural: "core.stall_structural_frac",
	stats.StallFetchEmpty: "core.stall_fetch_empty_frac",
	stats.StallDrain:      "core.stall_drain_frac",
}

// perLayerNames lists every per-layer metric, in print order. A traced run
// prints all of them for every workload; one that a workload does not
// exercise reads 0.
var perLayerNames = func() []string {
	var names []string
	for _, l := range append(append([]string{}, layers...), layerRuntime, layerBench) {
		names = append(names, l+".cpu_ns_per_inst")
	}
	names = append(names,
		"process.cpu_ns_per_inst",
		"tracing_overhead_pct",
		"runtime.alloc_bytes_per_inst",
		"runtime.gc_cycles_per_minst",

		// sweep-longtrace: the per-layer replay of the first sweep and the
		// checkpoint stores of every sweep.
		"trace.hash_ms",
		"trace.shard_ms",
		"ckpt.warmto_ms_p50",
		"ckpt.warmto_ms_p90",
		"ckpt.restore_frac",
		"ckpt.captures_per_sweep",
		"ckpt.disk_mb",
		"core.runwarmed_ms_p50",
		"core.merge_us",
		"journal.put_ms_p50",
		"journal.get_ms_p50",
		"sim.cpu_idle_frac",

		// daemon-tiny-cells: the HTTP middleware and the re-admission of
		// the daemon's journal entries.
		"service.submit_ms_p50",
		"service.queue_wait_ms_p50",
		"service.acquire_ms_p50",
		"service.acquire_empty_frac",
		"service.complete_ms_p50",
		"service.complete_ms_p90",
		"service.upload_kb_p50",
		"service.lease_hold_ms_p50",
		"service.event_lag_ms_p50",
		"service.heartbeats_per_cell",
		"service.cpu_idle_frac",
		"journal.admit_ms_p50",
		"journal.rejected",

		// Simulated statistics of the first round.
		"core.ipc",
	)
	for _, k := range stallOrder {
		names = append(names, stallMetricNames[k])
	}
	names = append(names,
		"core.delayed_frac",
		"cache.il0_miss_rate",
		"cache.dl0_miss_rate",
		"cache.ul1_miss_rate",
		"cache.dtlb_miss_rate",
		"cache.stable_forwards_per_kinst",
		"predictor.mispredict_rate",
		"sram.corrupt_consumed",
		"model.paper_err_pct",
	)
	return names
}()

// perLayerUnit derives a per-layer metric's unit from its name.
func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, ".cpu_ns_per_inst"):
		return "ns/inst"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "alloc_bytes_per_inst"):
		return "B/inst"
	case strings.HasSuffix(name, "_per_minst"):
		return "1/Minst"
	case strings.HasSuffix(name, "_per_kinst"):
		return "1/kinst"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	case strings.Contains(name, "_kb"):
		return "KiB"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_rate"):
		return "ratio"
	case name == "core.ipc":
		return "insts/cycle"
	default:
		return "count"
	}
}
