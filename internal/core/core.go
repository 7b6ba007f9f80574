package core

import (
	"fmt"
	"math"

	"lowvcc/internal/cache"
	"lowvcc/internal/circuit"
	"lowvcc/internal/iq"
	"lowvcc/internal/isa"
	"lowvcc/internal/predictor"
	"lowvcc/internal/regfile"
	"lowvcc/internal/rng"
	"lowvcc/internal/scoreboard"
	"lowvcc/internal/stats"
	"lowvcc/internal/trace"
)

// Core is one simulated operating point of the modelled processor.
// Not goroutine-safe; create one Core per concurrent simulation. The zero
// Core holds no configuration: ResetTo makes it the core New builds.
type Core struct {
	cfg   Config
	model *circuit.Model
	plan  circuit.ClockPlan

	sb  *scoreboard.Scoreboard
	q   *iq.Queue
	rf  *regfile.File
	bp  *predictor.Predictor
	mem *cache.Hierarchy

	// Per-register shadow timing, mirroring what the bypass network knows:
	// when each register's in-flight value lands in the RF and until when
	// the bypass network can supply it.
	regWriteAt    [isa.NumRegs]int64
	regBypassTill [isa.NumRegs]int64

	// Extra-Bypass write-port FIFO state.
	portBusyUntil int64

	// bypassLvl and writePipe cache cfg.Scoreboard.BypassLevels and
	// plan.WritePipelineCycles for the per-issue hot path (refreshed by
	// applyPlan).
	bypassLvl int64
	writePipe int64

	// now is the core's clock. It never resets: every absolute stamp in
	// the hierarchy (fill completions, stabilization windows, buffer
	// occupancy) lives on this timeline, so back-to-back runs on one core
	// (warm-up passes, DVFS phases) stay consistent.
	now int64

	// wheel carries deferred events (long-latency completions, pending RF
	// writes) across cycles and across runs, bucketed by due-cycle.
	wheel wheel

	seq uint64 // value generator: each producer writes its sequence number

	// stop, when non-nil, is polled periodically from the run loop; a
	// non-nil return aborts the run with that error. The experiment runner
	// wires context cancellation and per-point timeouts through it so a
	// long simulation can be preempted between cycles without perturbing
	// results (the check has no side effects on core state).
	stop func() error

	// Per-run scratch, owned by the core so back-to-back Run calls (and
	// Reset-reused cores) allocate nothing on the hot path. fetch is the
	// fetch buffer of trace indices; flags holds the in-flight
	// instructions' census flags (see slotFlags).
	fetch fetchRing
	flags flagRing
}

// New builds a core for cfg: it allocates a Core and resets it to cfg
// (ResetTo), so a fresh core and a reset one come out of the same code.
func New(cfg Config) (*Core, error) {
	c := new(Core)
	if err := c.ResetTo(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset is ResetTo of the core's current configuration (its Vcc as the
// last Reconfigure left it).
func (c *Core) Reset() error { return c.ResetTo(c.cfg) }

// ResetTo re-targets the core to cfg and restores the state New(cfg)
// would produce — cold caches, empty pipeline, cycle zero, cfg's fault
// maps — so a reset core is bit-identical to a fresh one whatever it ran
// before; the checkpoint store relies on that to discard a part-way
// restore, and the sim runner to recycle cores across windows. Every
// block clears in place and reallocates a buffer only when cfg needs a
// larger one. The stop check stays installed. An invalid cfg returns its
// error and leaves the core unchanged.
func (c *Core) ResetTo(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	model := c.model
	if p := circuitParams(&cfg); model == nil || model.Params() != p {
		model = circuit.NewModel(p)
	}
	if c.sb == nil {
		c.sb, c.q, c.rf, c.bp, c.mem = new(scoreboard.Scoreboard), new(iq.Queue),
			new(regfile.File), new(predictor.Predictor), new(cache.Hierarchy)
	}
	if err := c.mem.Reset(cfg.Hierarchy, cfg.DisableFastPaths); err != nil {
		return err
	}
	c.sb.Reset(cfg.Scoreboard)
	c.q.Reset(cfg.IQ)
	c.rf.Reset()
	c.bp.Reset(cfg.Predictor)
	c.wheel.clear()
	*c = Core{cfg: cfg, model: model, sb: c.sb, q: c.q, rf: c.rf, bp: c.bp, mem: c.mem,
		wheel: c.wheel, stop: c.stop, fetch: c.fetch, flags: c.flags}
	c.fetch.init(cfg.Width)
	c.flags.init(len(c.fetch.buf) + cfg.IQ.Size)

	if c.applyPlan().faultMaps {
		c.installFaultMaps()
	}
	return nil
}

// MustNew is New for static configurations.
func MustNew(cfg Config) *Core {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Plan returns the active clock plan.
func (c *Core) Plan() circuit.ClockPlan { return c.plan }

// applyPlan derives the clock plan for the configured Vcc and
// reconfigures every block to it — exactly the Vcc controller's job in
// Sections 4.1.3, 4.2, 4.3 and 4.4. It returns the derivation it applied.
func (c *Core) applyPlan() engineTiming {
	t, plan := deriveTiming(c.model, &c.cfg)
	c.plan = plan

	interrupted, n := t.mem.Interrupted, t.mem.N
	effN := 0
	if t.mem.Avoid {
		effN = n
	}
	c.sb.SetStabilizeCycles(effN)
	c.q.SetStabilizeCycles(effN)
	c.rf.SetIRAW(interrupted, n)
	if interrupted {
		c.bp.SetStabilizeCycles(n)
	} else {
		c.bp.SetStabilizeCycles(0)
	}
	c.mem.SetMode(t.mem)
	c.rf.SetWritePipeline(t.writePipeline)
	c.bypassLvl = int64(c.cfg.Scoreboard.BypassLevels)
	c.writePipe = int64(t.writePipeline)
	return t
}

// Reconfigure moves the core to a new Vcc level at run boundaries (the
// DVFS transition: only shift-register init values, the IQ threshold, the
// STable size and the stall counters change).
func (c *Core) Reconfigure(v circuit.Millivolts) error {
	if !v.Valid() {
		return fmt.Errorf("core: invalid Vcc %v", v)
	}
	c.cfg.Vcc = v
	c.applyPlan()
	return nil
}

// installFaultMaps disables cache lines that fail timing at the reduced
// margin (Faulty Bits). The RF and IQ cannot tolerate faulty entries
// (Section 2.2, Table 1) — the design is idealized there, which the
// comparison harness reports.
func (c *Core) installFaultMaps() {
	src := rng.New(c.cfg.Seed ^ 0xFAB17B175)
	sigma := c.cfg.FaultySigma
	for _, ca := range []*cache.Cache{c.mem.IL0, c.mem.DL0, c.mem.UL1, c.mem.ITLB, c.mem.DTLB} {
		bits := ca.Config().LineBytes * 8
		if ca.Config().LineBytes > 512 {
			bits = 64 // TLBs: entry payload, not the page itself
		}
		p := circuit.LineFailProb(sigma, bits)
		ca.DisableFaultyLines(src.Fork(), p)
	}
}

// wakeKind distinguishes deferred events.
type wakeKind uint8

const (
	wakeLong    wakeKind = iota // long-latency completion heads-up
	wakeRFWrite                 // physical register-file write
)

// wake is one deferred event; fields are ordered to pack into 32 bytes
// (events are copied on every wheel push and dispatch).
type wake struct {
	at    int64
	avail int64 // cycle the value becomes available (wakeLong)
	val   uint64
	kind  wakeKind
	reg   isa.Reg
}

// fbEntry is one fetched-but-not-allocated instruction, identified by its
// index in the running trace.
type fbEntry struct {
	idx     int
	readyAt int64
}

// fetchRing is the fetch buffer between fetch and allocate: 8 entries per
// width step, rounded up to a power of two for the ring arithmetic — 16 at
// the modelled width 2, exactly the seed's fixed depth. A ring (rather
// than a reallocated slice) keeps the fetch→allocate path allocation-free.
type fetchRing struct {
	buf  []fbEntry
	mask int
	head int
	n    int
}

// init sizes the ring for the configured width and empties it. The buffer
// is reallocated only when the capacity changes, so Reset-reused cores
// keep their scratch.
func (r *fetchRing) init(width int) {
	c := nextPow2(8 * width)
	if len(r.buf) != c {
		r.buf = make([]fbEntry, c)
		r.mask = c - 1
	}
	r.head, r.n = 0, 0
}

func (r *fetchRing) clear()          { r.head, r.n = 0, 0 }
func (r *fetchRing) len() int        { return r.n }
func (r *fetchRing) full() bool      { return r.n == len(r.buf) }
func (r *fetchRing) front() *fbEntry { return &r.buf[r.head] }

func (r *fetchRing) push(e fbEntry) {
	r.buf[(r.head+r.n)&r.mask] = e
	r.n++
}

func (r *fetchRing) pop() {
	r.head = (r.head + 1) & r.mask
	r.n--
}

// slotFlags is the per-instruction state the pipeline adds to an in-flight
// trace instruction (fetched but not yet issued); everything else the
// issue stage needs it reads from the immutable *trace.Inst, whose trace
// index is the IQ payload.
type slotFlags struct {
	mispred bool // fetch-time misprediction verdict, consumed at issue
	delayed bool // already counted in DelayedByRFIRAW (census once per inst)
}

// flagRing holds slotFlags indexed by trace index & mask. In-order issue
// keeps the live indices contiguous — from the oldest unissued instruction
// up to the last one fetched — and there are at most fetch-buffer + IQ of
// them, so a ring of that capacity (rounded up to a power of two) never
// overwrites a live entry. An instruction's entry is cleared at fetch.
type flagRing struct {
	buf  []slotFlags
	mask int
}

// init sizes the ring for the fetch-buffer + IQ capacity. Like
// fetchRing.init, it reallocates only on a capacity change.
func (r *flagRing) init(capacity int) {
	c := nextPow2(capacity)
	if len(r.buf) != c {
		r.buf = make([]slotFlags, c)
		r.mask = c - 1
	}
}

// at returns trace index idx's flags.
func (r *flagRing) at(idx int) *slotFlags { return &r.buf[idx&r.mask] }

// nextPow2 returns the smallest power of two >= n (and >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// dispatchWakes handles every deferred event due this cycle: long-latency
// heads-ups re-arm the scoreboard and schedule the pipelined RF write;
// RF-write events land the value in the physical register file. Same-cycle
// events commute (they touch disjoint per-register and per-block state), so
// bucket order is free. A handler may push into the wheel — including this
// very bucket — which is safe: pushed events are always strictly in the
// future and the due-cycle filter skips them.
// The caller pre-checks the wheel's occupancy bit for this cycle, so idle
// cycles never pay the call; the check lives only at the call site.
func (c *Core) dispatchWakes(cycle int64) {
	bypass, writePipe := c.bypassLvl, c.writePipe
	b := c.wheel.bucket(cycle)
	dispatched := false
	for i := 0; i < len(*b); {
		w := (*b)[i]
		if w.at != cycle {
			i++ // a future lap's event sharing this bucket
			continue
		}
		dispatched = true
		(*b)[i] = (*b)[len(*b)-1]
		*b = (*b)[:len(*b)-1]
		c.wheel.pending--
		switch w.kind {
		case wakeLong:
			remaining := int(w.avail - cycle)
			if remaining < 1 {
				remaining = 1
			}
			c.sb.CompleteLongLatency(w.reg, remaining)
			c.regWriteAt[w.reg] = w.avail + bypass
			// The bypass network serves consumers issuing strictly
			// before the RF write lands (through w-1 for single-cycle
			// writes; Extra-Bypass extends it across the pipelined
			// write).
			c.regBypassTill[w.reg] = w.avail + bypass + writePipe - 2
			c.wheel.push(wake{at: w.avail + bypass, kind: wakeRFWrite, reg: w.reg, val: w.val})
		case wakeRFWrite:
			c.rf.Write(w.at, w.reg, w.val)
		}
	}
	if dispatched {
		c.wheel.noteDrained(cycle)
	}
}

// SetStopCheck installs f as the run loop's preemption hook: it is polled
// every few thousand loop iterations and a non-nil return aborts the
// in-flight run or warm replay with that error. Passing nil removes the hook.
// The hook must be side-effect free with respect to simulation state; it
// never affects the results of runs that complete.
func (c *Core) SetStopCheck(f func() error) { c.stop = f }

// Run simulates tr to completion and reports the result. The core's caches
// stay warm across calls (deliberately, for the DVFS scenario); use a fresh
// Core for independent measurements.
//
// The loop is event-driven: deferred completions dispatch from a timing
// wheel, the scoreboard stores cycle boundaries (time advances in one
// jump), and cycles in which no pipeline stage can make progress are
// skipped in bulk to the next interesting time — see the package
// documentation for the skip conditions and why stall attribution is
// preserved. With Config.DisableFastPaths set it steps every cycle
// instead; Results are bit-identical either way (golden + fuzz equivalence
// tests hold the engines together).
func (c *Core) Run(tr *trace.Trace) (*Result, error) { return c.run(tr) }

// RunWarmed simulates one sample window of the sharded methodology: tr's
// measured span — the instructions from measureFrom on — on the timed
// engine, assuming the warm-up prefix has already been applied to the core
// (WarmReplay/WarmReplayRange, a checkpoint RestoreWarm, or any mix of
// restore and residual replay). The timed engine starts cold-pipelined but
// warm-stated at the boundary, and measurement covers every simulated
// cycle, so the boundary is deterministic. RunWarmed(tr, 0) on a fresh
// core is exactly Run(tr). trace.Shard produces the windows, the sim
// runner fans them out and MergeWindowResults stitches the pieces.
func (c *Core) RunWarmed(tr *trace.Trace, measureFrom int) (*Result, error) {
	if measureFrom < 0 || measureFrom >= len(tr.Insts) {
		return nil, fmt.Errorf("core: window start %d out of range for trace %q (%d insts)",
			measureFrom, tr.Name, len(tr.Insts))
	}
	span := &trace.Trace{Name: tr.Name, Insts: tr.Insts[measureFrom:]}
	return c.run(span)
}

func (c *Core) run(tr *trace.Trace) (*Result, error) {
	insts := tr.Insts
	total := len(insts)
	if total == 0 {
		return nil, fmt.Errorf("core: empty trace %q", tr.Name)
	}

	// A Result covers this run only: zero every flow counter it reports
	// (the blocks' state, caches included, persists across runs).
	c.rf.ResetStats()
	c.mem.ResetStats()
	c.bp.ResetStats()
	c.q.NOOPsInjected = 0
	var run stats.Run
	c.fetch.clear()

	fetchIdx := 0
	fetchStallUntil := int64(0)
	awaitRedirect := -1
	lastFetchLine := ^uint64(0)
	draining := false

	startCycle := c.now
	cycle := c.now
	issuedTotal := 0

	maxCycles := c.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 10000 + int64(total)*400
	}
	maxCycles += startCycle

	// The reference engine steps every cycle: no idle-cycle skip.
	stepped := c.cfg.DisableFastPaths

	loopIters := 0
	for issuedTotal < total {
		if c.stop != nil && loopIters&1023 == 0 {
			if err := c.stop(); err != nil {
				return nil, fmt.Errorf("core: %s: run aborted: %w", tr.Name, err)
			}
		}
		loopIters++
		cycle++
		if cycle > maxCycles {
			return nil, fmt.Errorf("core: deadlock watchdog at cycle %d (%d/%d issued, occupancy %d)",
				cycle, issuedTotal, total, c.q.Occupancy())
		}

		c.sb.AdvanceTo(cycle)
		if c.wheel.occ>>(uint(cycle)&wheelMask)&1 != 0 {
			c.dispatchWakes(cycle)
		}

		// ===== Issue stage (reads IQ entries before this cycle's allocs).
		issued := 0
		memIssued := false
		stall := stats.StallNone
		blocked := -1          // trace index of the head a failed tryIssue left behind
		var blockedRetry int64 // earliest cycle its verdict can change (valid with blocked >= 0)
		for issued < c.cfg.Width {
			if c.q.Occupancy() == 0 {
				if issued == 0 && issuedTotal < total {
					stall = stats.StallFetchEmpty
				}
				break
			}
			if !c.q.MayIssue() {
				if issued == 0 && c.q.GateBlocked() {
					stall = stats.StallIQGate
					c.q.NoteGateStall()
				}
				break
			}
			if stepped && !c.q.EntriesStable(cycle) {
				return nil, fmt.Errorf("core: %s: IQ gate open over stabilizing entries at cycle %d (occupancy %d)",
					tr.Name, cycle, c.q.Occupancy())
			}
			e := c.q.Oldest(0)
			if e.NOOP {
				c.q.PopOldest()
				run.IssuedNOOPs++
				issued++
				continue
			}
			idx := int(e.Payload)
			in := &insts[idx]
			reason, ok := c.tryIssue(cycle, in, c.flags.at(idx), &memIssued, &run, &fetchStallUntil, &awaitRedirect)
			if !ok {
				if issued == 0 {
					stall = reason
					blocked = idx
					blockedRetry = c.issueRetryAt(cycle, in)
				}
				break
			}
			c.q.PopOldest()
			issued++
			issuedTotal++
			if in.Op == isa.OpFence {
				draining = false
			}
		}
		if issued > 2 {
			issued = 2
		}
		run.IssueHist[issued]++
		if issued == 0 && stall != stats.StallNone {
			run.IssueStalls[stall]++
		}

		// ===== Allocate stage (up to AI per cycle, after issue).
		allocs := 0
		if !draining {
			for allocs < c.cfg.IQ.AI && c.fetch.len() > 0 && c.q.Free() > 0 {
				fe := *c.fetch.front()
				if fe.readyAt > cycle {
					break
				}
				c.q.Alloc(cycle, uint64(fe.idx))
				c.fetch.pop()
				allocs++
				if insts[fe.idx].Op == isa.OpFence {
					draining = true
					break
				}
			}
		}
		// Drain NOOP injection: the occupancy gate blocks while allocation
		// has nothing to deliver (fence drain, trace end, mispredict
		// redirect, or an instruction-fetch drought). In hardware the
		// front-end would keep allocating (wrong-path) instructions; the
		// NOOPs stand in for them so the gate cannot starve stable
		// instructions indefinitely.
		injected := 0
		if allocs == 0 && c.q.GateBlocked() {
			injected = c.q.InjectNOOPs(cycle)
		}

		// ===== Fetch stage.
		fetched := 0
		if fetchIdx < total && awaitRedirect < 0 && cycle >= fetchStallUntil {
			for f := 0; f < c.cfg.Width && fetchIdx < total && !c.fetch.full(); f++ {
				in := &insts[fetchIdx]
				line := in.PC &^ 63
				if line != lastFetchLine {
					fr := c.mem.FetchInst(cycle, in.PC)
					lastFetchLine = line
					if fr.ReadyCycle > cycle {
						// Miss or port hold: the group arrives later, data
						// via the fill buffer (no array re-read).
						fetchStallUntil = fr.ReadyCycle
						break
					}
				}
				*c.flags.at(fetchIdx) = slotFlags{}
				stop := c.predictAtFetch(cycle, fetchIdx, in, &fetchStallUntil, &awaitRedirect)
				c.fetch.push(fbEntry{fetchIdx, cycle + int64(c.cfg.FrontDepth)})
				fetchIdx++
				fetched++
				if stop {
					break
				}
			}
		}
		if fetched > 2 {
			fetched = 2
		}
		run.FetchHist[fetched]++

		// ===== Idle-cycle skip. When every stage came up empty the pipeline
		// state is frozen until an external time arrives: the next wheel
		// event, a fetch-stall expiry, a fetch-buffer entry maturing, or a
		// scoreboard/port-hold transition for the blocked head instruction.
		// Jump there, crediting the skipped cycles to the same histogram and
		// stall-attribution counters the stepped loop would have recorded
		// (the attribution is constant across the gap by construction: every
		// time at which it could change bounds the jump).
		//
		// Gate-blocked cycles are excluded: they charge the IQ gate-stall
		// counter per cycle and (when the queue is full) must spin to the
		// watchdog exactly as the stepped engine does. Structural write-port
		// stalls are excluded inside issueRetryAt (they charge per-cycle
		// port contention).
		if issued == 0 && allocs == 0 && injected == 0 && fetched == 0 &&
			stall != stats.StallIQGate && !stepped {
			next := c.wheel.nextAfter(cycle)
			if blocked >= 0 && blockedRetry < next {
				next = blockedRetry
			}
			if !draining && c.fetch.len() > 0 && c.q.Free() > 0 {
				if fe := c.fetch.front(); fe.readyAt > cycle && fe.readyAt < next {
					next = fe.readyAt
				}
			}
			if fetchIdx < total && awaitRedirect < 0 && fetchStallUntil > cycle && fetchStallUntil < next {
				next = fetchStallUntil
			}
			if next > maxCycles+1 {
				next = maxCycles + 1 // a genuine deadlock still trips the watchdog
			}
			if k := next - cycle - 1; k > 0 {
				run.IssueHist[0] += uint64(k)
				if stall != stats.StallNone {
					run.IssueStalls[stall] += uint64(k)
				}
				run.FetchHist[0] += uint64(k)
				cycle += k
			}
		}
	}

	c.now = cycle
	run.Cycles = uint64(cycle - startCycle)
	run.Instructions = uint64(total)
	return c.buildResult(tr.Name, &run), nil
}

// predictAtFetch consults BP/RSB for control ops, returning whether fetch
// must stop after this instruction (a predicted-wrong path we do not model:
// the trace holds only correct-path instructions, so a misprediction is a
// fetch bubble until the branch resolves at issue). idx is the
// instruction's trace index; a misprediction is recorded in its flags for
// tryIssue's commit half to consume.
func (c *Core) predictAtFetch(cycle int64, idx int, in *trace.Inst, fetchStallUntil *int64, awaitRedirect *int) bool {
	switch in.Op {
	case isa.OpBranch:
		pred := c.bp.PredictBranch(cycle, in.PC)
		if pred != in.Taken {
			c.flags.at(idx).mispred = true
			*awaitRedirect = idx
			return true
		}
		// Correctly predicted taken branches end the fetch group (target
		// fetch continues next cycle).
		return in.Taken
	case isa.OpCall:
		c.bp.PushCall(cycle, in.PC+4)
		return true
	case isa.OpReturn:
		tgt, stallCycles, conflict := c.bp.PredictReturn(cycle)
		if stallCycles > 0 {
			*fetchStallUntil = cycle + int64(stallCycles)
		}
		if conflict || tgt != in.Addr {
			c.bp.NoteReturnMispredict()
			c.flags.at(idx).mispred = true
			*awaitRedirect = idx
			return true
		}
		return true
	}
	return false
}

// tryIssue attempts to issue in at cycle; fl is its in-flight flags. On
// failure it returns the stall attribution.
func (c *Core) tryIssue(cycle int64, in *trace.Inst, fl *slotFlags, memIssued *bool, run *stats.Run,
	fetchStallUntil *int64, awaitRedirect *int) (stats.StallKind, bool) {

	op, src1, src2, dst := in.Op, in.Src1, in.Src2, in.Dst
	if !c.sb.IssueReady(src1, src2, dst) {
		return c.scoreboardStall(in, fl, run), false
	}
	// Structural: one memory op per cycle; D-side port holds block issue.
	if isa.IsMem(op) {
		if *memIssued {
			return stats.StallStructural, false
		}
		if c.mem.DL0.Busy(cycle) {
			return stats.StallDL0IRAW, false
		}
		if c.mem.DTLB.Busy(cycle) {
			return stats.StallOtherIRAW, false
		}
	}
	// Extra-Bypass write-port FIFO.
	lat := int64(isa.Latency(op))
	if dst != isa.RegNone && c.writePipe > 1 {
		w := cycle + lat + c.bypassLvl
		if w <= c.portBusyUntil {
			c.rf.NotePortContention(c.portBusyUntil + 1 - w)
			return stats.StallStructural, false
		}
	}

	// ---- Commit to issuing: perform reads and effects.
	c.readSources(cycle, src1, src2)

	if isa.IsMem(op) {
		*memIssued = true
	}

	switch {
	case op == isa.OpLoad:
		res := c.mem.Load(cycle, in.Addr)
		avail := res.ReadyCycle + lat
		c.produce(cycle, dst, avail)
	case op == isa.OpStore:
		c.seq++
		c.mem.CommitStore(cycle, in.Addr, c.seq)
	case op == isa.OpBranch:
		c.bp.UpdateBranch(cycle, in.PC, in.Taken, fl.mispred)
		if fl.mispred {
			*fetchStallUntil = cycle + int64(c.cfg.MispredictPenalty)
			*awaitRedirect = -1
		}
	case op == isa.OpCall, op == isa.OpReturn:
		if fl.mispred {
			*fetchStallUntil = cycle + int64(c.cfg.MispredictPenalty)
			*awaitRedirect = -1
		}
	case dst != isa.RegNone:
		c.produce(cycle, dst, cycle+lat)
	}
	return stats.StallNone, true
}

// scoreboardStall attributes a failed scoreboard check: the first source
// that is not read-ready (in operand order), else the destination's WAW
// hazard. A source held only by the stabilization bubble counts the
// instruction as delayed, once.
func (c *Core) scoreboardStall(in *trace.Inst, fl *slotFlags, run *stats.Run) stats.StallKind {
	reg := in.Dst
	for _, src := range [2]isa.Reg{in.Src1, in.Src2} {
		if c.sb.ReadReady(src) {
			continue // RegNone is always ready
		}
		if c.sb.IRAWBlocked(src) {
			if !fl.delayed {
				fl.delayed = true
				run.DelayedByRFIRAW++
			}
			return stats.StallRFIRAW
		}
		reg = src
		break
	}
	if c.sb.LongPending(reg) {
		return stats.StallMemory
	}
	return stats.StallRAW
}

// issueRetryAt mirrors tryIssue's check sequence — with no side effects —
// and returns the earliest cycle after `cycle` at which the blocked head
// instruction's issue decision, or its stall attribution, could change by
// the passage of time alone. Wheel events (long-latency completions, RF
// writes) are bounded separately by the caller.
//
// Two subtleties keep the skip exact:
//
//   - every register tryIssue consulted bounds the jump, including sources
//     that passed: read readiness is not monotone (the stabilization bubble
//     follows the bypass window), so a passing source can block later and
//     change the attribution;
//   - a failing Extra-Bypass write-port check charges the RF
//     port-contention counter with a per-cycle-varying amount, so those
//     cycles must step singly (return cycle+1).
func (c *Core) issueRetryAt(cycle int64, in *trace.Inst) int64 {
	next := int64(math.MaxInt64)
	add := func(t int64) {
		if t > cycle && t < next {
			next = t
		}
	}
	for _, src := range [2]isa.Reg{in.Src1, in.Src2} {
		if src == isa.RegNone {
			continue
		}
		add(c.sb.NextChange(src))
		if !c.sb.ReadReady(src) {
			return next // the blocking source: later checks are not reached
		}
	}
	if dst := in.Dst; dst != isa.RegNone && !c.sb.WriteReady(dst) {
		add(c.sb.NextChange(dst))
		return next
	}
	// A passing write view stays passing (no bubble, monotone) until a new
	// producer issues — no candidate needed for the destination.
	if isa.IsMem(in.Op) {
		// memIssued is always false here (nothing issued this cycle).
		if c.mem.DL0.Busy(cycle) {
			// NextFree never jumps a free gap (it walks the contiguous busy
			// run), so every skipped cycle stays DL0-busy: attribution holds.
			add(c.mem.DL0.NextFree(cycle))
			return next
		}
		if c.mem.DTLB.Busy(cycle) {
			// The skip must not outrun a DL0 hold opening mid-gap: fill
			// windows are registered at miss time for future cycles, and
			// tryIssue checks DL0 before the DTLB, so the stepped engine
			// would re-attribute the stall the cycle DL0 turns busy.
			add(c.mem.DL0.NextHeld(cycle, c.mem.DTLB.NextFree(cycle)))
			return next
		}
		// New holds are only registered by accesses, and no access can
		// happen during an idle gap: both ports stay free.
	}
	// Only the Extra-Bypass write-port FIFO can have rejected the issue;
	// its contention accounting is per-cycle, so do not skip.
	return cycle + 1
}

// produce registers a producer whose value is available at `avail`,
// choosing the short (shift-register) or long-latency path.
func (c *Core) produce(cycle int64, dst isa.Reg, avail int64) {
	if dst == isa.RegNone {
		return
	}
	c.seq++
	val := c.seq
	lat := int(avail - cycle)
	bypass := c.bypassLvl
	writePipe := c.writePipe
	w := avail + bypass
	if lat <= c.sb.MaxShortLatency() {
		c.sb.IssueProducer(dst, lat)
		c.regWriteAt[dst] = w
		c.regBypassTill[dst] = w + writePipe - 2
		c.wheel.push(wake{at: w, kind: wakeRFWrite, reg: dst, val: val})
	} else {
		c.sb.BeginLongLatency(dst)
		c.regWriteAt[dst] = int64(1) << 60 // unknown until the heads-up
		headsUp := avail - int64(c.sb.MaxShortLatency())
		if headsUp <= cycle {
			headsUp = cycle + 1
		}
		c.wheel.push(wake{at: headsUp, kind: wakeLong, reg: dst, avail: avail, val: val})
	}
	if writePipe > 1 {
		c.portBusyUntil = w + writePipe - 1
	}
}

// readSources models the register reads of an issuing instruction: through
// the bypass network while the value is in flight, from the RF array (next
// cycle, per the pipeline contract) afterwards. Bypass-network deliveries
// touch no SRAM and are deliberately not charged as RF reads.
func (c *Core) readSources(cycle int64, src1, src2 isa.Reg) {
	for _, src := range [2]isa.Reg{src1, src2} {
		if src == isa.RegNone {
			continue
		}
		if c.regWriteAt[src] > cycle || cycle <= c.regBypassTill[src] {
			continue // value carried by the bypass network
		}
		c.rf.Read(cycle+1, src)
	}
}

func (c *Core) buildResult(name string, run *stats.Run) *Result {
	rfS, memS, bpS := c.rf.Stats(), c.mem.Stats(), c.bp.Stats()
	il0, dl0, ul1 := c.mem.IL0.Stats(), c.mem.DL0.Stats(), c.mem.UL1.Stats()
	itlb, dtlb := c.mem.ITLB.Stats(), c.mem.DTLB.Stats()

	res := &Result{
		TraceName: name,
		Plan:      c.plan,
		Run:       *run,
		Time:      float64(run.Cycles) * c.plan.CycleTime,

		RFViolations:         c.rf.Array().Stats().ViolationReads,
		CacheViolations:      c.mem.ViolationReads(),
		CorruptConsumed:      memS.CorruptConsumed,
		IntegrityErrors:      rfS.IntegrityErrors + memS.IntegrityErrors,
		RepairedDestructions: memS.RepairedDestructions,

		BP:   bpS,
		Mem:  memS,
		IL0:  il0,
		DL0:  dl0,
		UL1:  ul1,
		ITLB: itlb,
		DTLB: dtlb,

		NOOPsInjected: c.q.NOOPsInjected,
	}
	res.CorruptConsumed += res.RFViolations // RF violations are consumed reads

	res.Activity.Instructions = run.Instructions
	res.Activity.IL0Accesses = il0.Accesses
	res.Activity.DL0Accesses = dl0.Accesses
	res.Activity.UL1Accesses = ul1.Accesses
	res.Activity.TLBAccesses = itlb.Accesses + dtlb.Accesses
	res.Activity.RFReads = rfS.Reads // array reads only: bypass deliveries are free
	res.Activity.RFWrites = rfS.Writes
	res.Activity.IQOps = 2 * run.Instructions // alloc + issue per instruction
	res.Activity.BPAccesses = bpS.Predictions + bpS.ReturnPredictions
	res.Activity.ExecOps = run.Instructions
	res.Activity.MemAccesses = ul1.Misses
	return res
}

// IRAWExtraBits returns the latch bits the IRAW machinery adds: the
// scoreboard extension (bypass+bubble bits per register), the STable, the
// IQ occupancy comparator, and one 2-bit stall counter per cache-like
// block (Section 4.3).
func (c *Core) IRAWExtraBits() int {
	sbBits := c.cfg.Scoreboard.Regs * c.sb.ExtraBits
	stBits := c.mem.STab.Bits()
	iqBits := 12 // threshold adder + comparator state (Figure 9)
	counterBits := 7 * 2
	return sbBits + stBits + iqBits + counterBits
}

// TotalSRAMBits returns the core's SRAM capacity for area accounting.
func (c *Core) TotalSRAMBits() int {
	iqBits := c.cfg.IQ.Size * 64 // queue payload per entry
	return c.mem.TotalBits() + c.rf.TotalBits() + iqBits +
		c.bp.CounterBits() + c.bp.RSBBits()
}
