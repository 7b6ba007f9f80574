package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/journal"
)

// options is one invocation's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	out      string // directory for sweep stores and span files

	// corrupt flips one byte of the first cell's encoded result before the
	// correctness gate runs; the tests use it to show the gate fails.
	corrupt bool
}

// size names the digest table a run is checked against.
func (o *options) size() string {
	if o.quick {
		return "quick"
	}
	return "full"
}

// group is the unit a throughput sample and a cell-latency median are
// taken over: one round of an engine workload, one sweep otherwise.
type group struct {
	start time.Time
	wall  time.Duration
	insts float64   // instructions covered by the group's results
	lat   []float64 // each cell's latency from submission to result, ms, in cell order
}

func (g group) rate() float64 { return g.insts / g.wall.Seconds() }

func (g group) mid() time.Time { return g.start.Add(g.wall / 2) }

// setupSample is one set-up's duration and when it ran.
type setupSample struct {
	start time.Time
	dur   time.Duration
}

// roundOut is what one round of a workload returns.
type roundOut struct {
	// setup is set-up paid inside the round (the daemon starts fresh every
	// round); zero when the workload sets up once before the rounds.
	setup   setupSample
	groups  []group
	results []*core.Result // every cell's result, in cell order
}

// bench is one workload.
type bench interface {
	// setup builds the workload's inputs from the seed. The harness calls
	// it setupReps times before the timed phase, and the last build stays.
	setup() error
	// round runs one fixed batch of cells. rec is non-nil in traced rounds.
	round(ctx context.Context, idx int, rec *recorder) (roundOut, error)
	// reference recomputes cells of a round through the reference path:
	// all of them when full is set, otherwise at least one sweep's worth.
	// The results line up with a round's cells from index off on.
	reference(ctx context.Context, full bool) (res []*core.Result, off int, err error)
	// layerMetrics adds the workload's own per-layer metrics; first holds
	// the first round's results and rec is the run's span recorder, nil in
	// an untraced run.
	layerMetrics(ctx context.Context, first []*core.Result, rec *recorder, m map[string]float64) error
}

// workloadDef names a workload and how its set-up is measured.
type workloadDef struct {
	name string
	why  string
	// setupReps is how many times setup runs before the timed phase; the
	// daemon instead starts afresh each round and reports that set-up.
	setupReps int
	make      func(o *options, workDir string) bench
}

var workloads = []workloadDef{
	{
		name:      "engine-suite",
		why:       "seven cache-friendly paper profiles at six operating points, one reused core each: the issue engine (core, scoreboard, iq) does most of the host work",
		setupReps: 3,
		make:      func(o *options, _ string) bench { return newEngineSuite(o) },
	},
	{
		name:      "engine-membound",
		why:       "cache-hostile streaming trace at two operating points: cache, sram and stable take the largest share, so memory-side and issue-side changes separate",
		setupReps: 3,
		make:      func(o *options, _ string) bench { return newEngineMemBound(o) },
	},
	{
		name:      "sweep-longtrace",
		why:       "sharded 300k-instruction sweep through sim.Runner.Stream with fresh ckpt and journal stores: trace hashing, ckpt restore, warm replay and stitching do real work",
		setupReps: 3,
		make:      func(o *options, dir string) bench { return newSweepBench(o, dir) },
	},
	{
		name:      "daemon-tiny-cells",
		why:       "70-cell sweeps of tiny cells through the sweep daemon and push-down workers: lease, HTTP, upload, journal admission and fsync dominate each cell",
		setupReps: 0,
		make:      func(o *options, dir string) bench { return newDaemonBench(o, dir) },
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metric is one printed measurement.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample count or definition, printed beside the value
}

// report is one workload run's outcome.
type report struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	problems  []string
	notes     []string
	e2e       []metric
	perLayer  []metric
}

// harness runs a workload's rounds for the time budget, alternating traced
// and untraced rounds in a traced run, and keeps what the metrics need.
type harness struct {
	o        *options
	def      workloadDef
	nproc    int
	deadline time.Time

	rec  *recorder // nil in untraced runs
	prof bytes.Buffer
	cal  *calibration

	setups             []setupSample
	rounds             int
	untraced, traced   []group
	attempted          int
	first              []*core.Result
	mismatch           string
	layerNS            map[string]int64
	tracedCPU          time.Duration
	tracedInsts        float64
	timedCPU           time.Duration
	timedWall          time.Duration
	timedInsts         float64
	allocBytes, gcRuns uint64
	roundRSS           []float64 // each untraced round's peak RSS, MiB
}

// probeEvery spaces the calibration probes: about 5% of the timed phase.
const probeEvery = 1500 * time.Millisecond

// minimum rounds: the daemon needs several set-ups for a median, and a
// traced run needs both traced and untraced rounds.
func (h *harness) minRounds() int {
	if h.o.quick {
		return 2
	}
	if h.o.trace {
		return 4
	}
	return 3
}

func runWorkload(ctx context.Context, o *options) (*report, error) {
	def, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, fmt.Errorf("output directory: %w", err)
	}
	workDir, err := os.MkdirTemp(absOrSelf(o.out), "work-"+def.name+"-")
	if err != nil {
		return nil, fmt.Errorf("work directory: %w", err)
	}
	defer os.RemoveAll(workDir)

	h := &harness{o: o, def: def, nproc: runtime.GOMAXPROCS(0), layerNS: map[string]int64{}}
	h.cal = newCalibration(h.nproc)
	if o.trace {
		h.rec = newRecorder()
	}
	b := def.make(o, workDir)
	rep := &report{workload: def.name, correct: true}

	h.cal.measure()
	for i := 0; i < max(def.setupReps, 1); i++ {
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if def.setupReps > 0 {
			h.setups = append(h.setups, setupSample{t0, time.Since(t0)})
		}
	}

	if err := h.timedPhase(ctx, b); err != nil {
		rep.correct = false
		rep.failed = 1
		rep.attempted = max(h.attempted, 1)
		rep.problems = append(rep.problems, err.Error())
		return rep, nil
	}
	rep.attempted = h.attempted
	h.gate(ctx, b, rep)

	layerVals := map[string]float64{}
	if err := b.layerMetrics(ctx, h.first, h.rec, layerVals); err != nil {
		rep.correct = false
		rep.problems = append(rep.problems, err.Error())
	}
	if o.trace {
		path, err := h.rec.write(filepath.Join(absOrSelf(o.out), "trace"), def.name)
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		rep.notes = append(rep.notes, "spans written to "+path)
	}
	h.fill(rep, layerVals)
	return rep, nil
}

// timedPhase runs rounds until the time budget is spent.
func (h *harness) timedPhase(ctx context.Context, b bench) error {
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, wall0, spent0 := processCPU(), time.Now(), h.cal.spent
	h.deadline = wall0.Add(time.Duration(h.o.seconds * float64(time.Second)))
	h.cal.measure()
	for h.rounds < h.minRounds() || time.Now().Before(h.deadline) {
		if err := h.round(ctx, b); err != nil {
			return err
		}
		if last := h.cal.probes[len(h.cal.probes)-1].at; time.Since(last) >= probeEvery {
			h.cal.measure()
		}
	}
	h.cal.measure()
	probes := h.cal.spent.sub(spent0)
	h.timedCPU = processCPU() - cpu0 - probes.cpu
	h.timedWall = time.Since(wall0) - probes.wall
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	h.allocBytes, h.gcRuns = ms1.TotalAlloc-ms0.TotalAlloc, uint64(ms1.NumGC-ms0.NumGC-probes.gcs)
	return nil
}

// round runs one round; in a traced run every second round is traced: it
// records spans and a CPU profile, and its rusage CPU time is kept to check
// the profile's attribution against.
func (h *harness) round(ctx context.Context, b bench) error {
	traced := h.rec != nil && h.rounds%2 == 1
	var rec *recorder
	var cpu0 time.Duration
	if traced {
		rec = h.rec
		h.prof.Reset()
		if err := pprof.StartCPUProfile(&h.prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		cpu0 = processCPU()
	}
	rssReset := resetPeakRSS() == nil
	out, err := b.round(ctx, h.rounds, rec)
	if rssReset && !traced {
		if mib, err := peakRSSMiB(); err == nil {
			h.roundRSS = append(h.roundRSS, mib)
		}
	}
	if traced {
		cpu := processCPU() - cpu0
		pprof.StopCPUProfile()
		if err == nil {
			p, perr := decodeProfile(h.prof.Bytes())
			if perr != nil {
				return perr
			}
			for l, ns := range attribute(p) {
				h.layerNS[l] += ns
			}
			h.tracedCPU += cpu
			for _, g := range out.groups {
				h.tracedInsts += g.insts
			}
		}
	}
	h.attempted += len(out.results)
	if err != nil {
		return fmt.Errorf("round %d: %w", h.rounds, err)
	}
	if out.setup.dur > 0 {
		h.setups = append(h.setups, out.setup)
	}
	for _, g := range out.groups {
		h.timedInsts += g.insts
	}
	if traced {
		h.traced = append(h.traced, out.groups...)
	} else {
		h.untraced = append(h.untraced, out.groups...)
	}
	if h.first == nil {
		h.first = out.results
	} else if h.mismatch == "" {
		h.mismatch = compareResults(h.first, out.results)
		if h.mismatch != "" {
			h.mismatch = fmt.Sprintf("round %d differs from round 0: %s", h.rounds, h.mismatch)
		}
	}
	h.rounds++
	return nil
}

// compareResults reports the first cell whose result differs, or "".
func compareResults(want, got []*core.Result) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] == nil || *got[i] != *want[i] {
			return fmt.Sprintf("cell %d", i)
		}
	}
	return ""
}

// gate is the correctness check: rounds agree with each other, a reference
// recomputation agrees bit for bit, and at the default seed the digest of
// the first round matches the recorded one.
func (h *harness) gate(ctx context.Context, b bench, rep *report) {
	fail := func(format string, a ...any) {
		rep.correct = false
		rep.problems = append(rep.problems, fmt.Sprintf(format, a...))
	}
	if h.mismatch != "" {
		fail("%s", h.mismatch)
	}
	enc, err := encodeResults(h.first)
	if err != nil {
		fail("%v", err)
		return
	}
	if h.o.corrupt {
		enc[0][len(enc[0])/2] ^= 0x01
	}
	ref, off, err := b.reference(ctx, false)
	if err != nil {
		fail("reference path: %v", err)
		return
	}
	refEnc, err := encodeResults(ref)
	if err != nil {
		fail("%v", err)
		return
	}
	for i := range refEnc {
		if off+i >= len(enc) || !bytes.Equal(refEnc[i], enc[off+i]) {
			fail("cell %d differs from the reference path", off+i)
			break
		}
	}
	rep.notes = append(rep.notes, fmt.Sprintf("reference path recomputed %d of %d cells", len(ref), len(enc)))
	got := journal.Key(bytesToStrings(enc)...)
	if h.o.seed == 1 {
		want, err := recordedDigest(h.o.size(), h.def.name)
		switch {
		case err != nil:
			fail("%v", err)
		case got != want:
			fail("digest %s, recorded %s", got, want)
		default:
			rep.notes = append(rep.notes, "digest matches the recorded default-seed digest "+got[:16])
		}
	} else {
		rep.notes = append(rep.notes, "digest "+got[:16]+" (recorded digests cover seed 1 only)")
	}
}

func encodeResults(results []*core.Result) ([][]byte, error) {
	out := make([][]byte, len(results))
	for i, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("encoding cell %d: %w", i, err)
		}
		out[i] = b
	}
	return out, nil
}

func bytesToStrings(bs [][]byte) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = string(b)
	}
	return out
}

// fill computes every metric from what the rounds kept.
func (h *harness) fill(rep *report, layerVals map[string]float64) {
	cal := h.summarize(h.untraced, h.cal.slowdownAt)
	raw := h.summarize(h.untraced, func(time.Time) float64 { return 1 })
	rss, rssNote := median(h.roundRSS), fmt.Sprintf("median over %d rounds of each round's peak RSS", len(h.roundRSS))
	if len(h.roundRSS) == 0 {
		rss, rssNote = maxRSSMiB(), "getrusage max RSS of the process"
	}
	cells := fmt.Sprintf("%d cells, each the median of its %d groups", cal.cells, cal.groups)
	rep.e2e = []metric{
		{"sim_insts_per_s", cal.rate, "insts/s", fmt.Sprintf("median of %d untraced groups", cal.groups)},
		{"cell_p50_ms", cal.p50, "ms", "p50 over " + cells},
		{"cell_tail_ms", cal.tail, "ms", "p90 over " + cells},
		{"setup_s", cal.setup, "s", fmt.Sprintf("median of %d set-ups", len(h.setups))},
		{"peak_rss_mb", rss, "MiB", rssNote},
	}
	hashSec, tblSec := h.cal.medianProbe()
	rep.notes = append(rep.notes,
		fmt.Sprintf("%d rounds, %d cells, %.1f s in rounds", h.rounds, h.attempted, h.timedWall.Seconds()),
		fmt.Sprintf("host times are calibrated to the reference host; %d probes ran %.3gx its speed (median kernels %.4f s, %.4f s)",
			len(h.cal.probes), 1/median(h.slowdowns()), hashSec, tblSec),
		fmt.Sprintf("raw wall clock: sim_insts_per_s %.6g cell_p50_ms %.6g cell_tail_ms %.6g setup_s %.6g",
			raw.rate, raw.p50, raw.tail, raw.setup))

	m := make(map[string]float64, len(perLayerNames))
	for _, n := range perLayerNames {
		m[n] = 0
	}
	for k, v := range layerVals {
		m[k] = v
	}
	insts := h.timedInsts
	m["runtime.alloc_bytes_per_inst"] = float64(h.allocBytes) / insts
	m["runtime.gc_cycles_per_minst"] = float64(h.gcRuns) / (insts / 1e6)
	idle := 1 - h.timedCPU.Seconds()/(float64(h.nproc)*h.timedWall.Seconds())
	switch h.def.name {
	case "sweep-longtrace":
		m["sim.cpu_idle_frac"] = idle
	case "daemon-tiny-cells":
		m["service.cpu_idle_frac"] = idle
	}
	modelCounts(core.MergeResults(h.first), m)
	if h.o.trace && h.tracedInsts > 0 {
		for _, l := range append(layers, layerRuntime, layerBench) {
			m[l+".cpu_ns_per_inst"] = float64(h.layerNS[l]) / h.tracedInsts
		}
		m["process.cpu_ns_per_inst"] = float64(h.tracedCPU.Nanoseconds()) / h.tracedInsts
		traced := h.summarize(h.traced, h.cal.slowdownAt)
		m["tracing_overhead_pct"] = 100 * (1 - traced.rate/cal.rate)
		var sum float64
		for _, l := range append(layers, layerRuntime, layerBench) {
			sum += m[l+".cpu_ns_per_inst"]
		}
		rep.notes = append(rep.notes, fmt.Sprintf("layer CPU sums to %.1f ns/inst; getrusage says %.1f ns/inst (%d traced groups)",
			sum, m["process.cpu_ns_per_inst"], len(h.traced)))
	}
	for _, n := range perLayerNames {
		rep.perLayer = append(rep.perLayer, metric{name: n, value: m[n], unit: perLayerUnit(n)})
	}
}

// summary holds the end-to-end host-time statistics of a set of groups.
type summary struct {
	rate, p50, tail, setup float64
	groups, cells          int
}

// summarize computes the end-to-end statistics of groups and of the run's
// set-ups, dividing every time measured at t by slow(t). Every group runs
// the same cells in the same order, so a cell's latency is taken as its
// median over the groups, which keeps one contention burst from landing
// in the tail; the p50 and p90 are then taken over the cells.
func (h *harness) summarize(groups []group, slow func(time.Time) float64) summary {
	var rates, setups []float64
	var perCell [][]float64
	for _, g := range groups {
		s := slow(g.mid())
		rates = append(rates, g.rate()*s)
		for i, l := range g.lat {
			if i == len(perCell) {
				perCell = append(perCell, nil)
			}
			perCell[i] = append(perCell[i], l/s)
		}
	}
	cellLat := make([]float64, len(perCell))
	for i, ls := range perCell {
		cellLat[i] = median(ls)
	}
	for _, su := range h.setups {
		setups = append(setups, su.dur.Seconds()/slow(su.start.Add(su.dur/2)))
	}
	return summary{
		rate: median(rates), p50: median(cellLat), tail: quantile(cellLat, 0.9), setup: median(setups),
		groups: len(groups), cells: len(cellLat),
	}
}

func (h *harness) slowdowns() []float64 {
	var s []float64
	for _, p := range h.cal.probes {
		s = append(s, p.slowdown())
	}
	return s
}

// modelCounts adds the simulated statistics of the first round, summed
// over its cells. They depend only on the inputs, so any change that only
// speeds up the simulator must leave them identical.
func modelCounts(agg *core.Result, m map[string]float64) {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	run := &agg.Run
	m["core.ipc"] = run.IPC()
	for k, name := range stallMetricNames {
		m[name] = run.StallFraction(k)
	}
	m["core.delayed_frac"] = run.DelayedFraction()
	m["cache.il0_miss_rate"] = ratio(agg.IL0.Misses, agg.IL0.Accesses)
	m["cache.dl0_miss_rate"] = ratio(agg.DL0.Misses, agg.DL0.Accesses)
	m["cache.ul1_miss_rate"] = ratio(agg.UL1.Misses, agg.UL1.Accesses)
	m["cache.dtlb_miss_rate"] = ratio(agg.DTLB.Misses, agg.DTLB.Accesses)
	m["cache.stable_forwards_per_kinst"] = 1000 * ratio(agg.Mem.STableForwards, run.Instructions)
	m["predictor.mispredict_rate"] = ratio(agg.BP.Mispredicts, agg.BP.Predictions)
	m["sram.corrupt_consumed"] = float64(agg.CorruptConsumed)
}

// paperErrPct is the mean relative error, in percent, of the model against
// the five anchors bench_test.go quotes from the paper: frequency gains of
// 1.57 and 1.99 and performance gains of 1.48 and 1.90 at 500 and 400 mV
// (Fig. 11b), and 13.2% of instructions delayed at 575 mV (Section 5.2).
// agg returns the suite aggregate at one operating point.
func paperErrPct(agg func(circuit.Mode, circuit.Millivolts) *core.Result) float64 {
	gain := func(v circuit.Millivolts) (freq, perf float64) {
		base, iraw := agg(circuit.ModeBaseline, v), agg(circuit.ModeIRAW, v)
		return iraw.Plan.FreqGain, base.Time / iraw.Time
	}
	f500, p500 := gain(500)
	f400, p400 := gain(400)
	anchors := [][2]float64{
		{f500, 1.57}, {f400, 1.99}, {p500, 1.48}, {p400, 1.90},
		{agg(circuit.ModeIRAW, 575).Run.DelayedFraction(), 0.132},
	}
	var sum float64
	for _, a := range anchors {
		sum += math.Abs(a[0]-a[1]) / a[1]
	}
	return 100 * sum / float64(len(anchors))
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// processCPU is the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS lowers the kernel's peak-RSS mark of this process to its
// current RSS (Linux, /proc/self/clear_refs).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the peak RSS since the last reset (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// maxRSSMiB is the process's maximum resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func absOrSelf(p string) string {
	if a, err := filepath.Abs(p); err == nil {
		return a
	}
	return p
}
