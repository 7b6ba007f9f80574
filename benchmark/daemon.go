package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/journal"
	"lowvcc/internal/service"
	"lowvcc/internal/sim"
)

// daemonBench runs sweeps of tiny cells through the sweep daemon. Each
// round starts a daemon as sweepd does by default (no in-process workers,
// journal fsync on) behind a loopback listener, joins nproc push-down
// workers through service.Work, and has one service.Client submit its
// sweeps one after another, following each sweep's events to the end.
type daemonBench struct {
	o       *options
	workDir string
	// base is the first sweep's InstsPerTrace; sweep k of a round uses
	// base+k, so no cell of a round replays from the journal.
	base   int
	sweeps int // per round
	levels []int

	svc svcStats
}

const (
	daemonTraces = 7 // workload.Profiles(), one seed each
	daemonModes  = 2
)

func newDaemonBench(o *options, workDir string) *daemonBench {
	d := &daemonBench{
		o: o, workDir: workDir,
		// The seed moves the trace length by at most 112 instructions, so
		// every seed simulates about the same work.
		base:   5000 + 16*int((o.seed-1)%8),
		sweeps: 8,
		levels: []int{700, 575, 500, 450, 400},
	}
	if o.quick {
		d.base, d.sweeps = 500+int((o.seed-1)%8), 2
	}
	return d
}

func (d *daemonBench) spec(k int) sim.SweepSpec {
	return sim.SweepSpec{
		InstsPerTrace:   d.base + k,
		SeedsPerProfile: 1,
		Modes:           []string{"baseline", "iraw"},
		LevelsMV:        d.levels,
	}
}

func (d *daemonBench) cellsPerSweep() int { return daemonTraces * daemonModes * len(d.levels) }

// setup generates the traces of every sweep, the warm-up sweep included;
// the daemon and its workers find them in the workload package's suite
// cache.
func (d *daemonBench) setup() error {
	for k := -1; k < d.sweeps; k++ {
		if n := len(d.spec(k).Traces()); n != daemonTraces {
			return fmt.Errorf("suite has %d traces, want %d", n, daemonTraces)
		}
	}
	return nil
}

func (d *daemonBench) round(ctx context.Context, idx int, rec *recorder) (out roundOut, err error) {
	dir := filepath.Join(d.workDir, fmt.Sprintf("daemon-%d", idx))
	defer os.RemoveAll(dir)
	nproc := runtime.GOMAXPROCS(0)

	t0 := time.Now()
	srv, _, err := service.NewServer(service.ServerOpts{
		SchedulerOpts: service.SchedulerOpts{JournalDir: filepath.Join(dir, "daemon"), JournalSync: true},
		Workers:       -1,
	})
	if err != nil {
		return out, err
	}
	var tracer *svcTracer
	handler := srv.Handler()
	if rec != nil {
		tracer = newSvcTracer(rec)
		handler = tracer.wrap(handler)
	}
	join := newJoinWatch(nproc)
	handler = join.wrap(handler)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(ctx)
		return out, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	url := "http://" + ln.Addr().String()
	wctx, stopWorkers := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i := 0; i < nproc; i++ {
		opts := service.WorkerOpts{
			Name:       fmt.Sprintf("bench-%d", i),
			Poll:       20 * time.Millisecond,
			JournalDir: filepath.Join(dir, fmt.Sprintf("worker-%d", i)),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = service.Work(wctx, url, opts) // ends with the context's error
		}()
	}
	defer func() {
		stopWorkers()
		wg.Wait()
		hs.Close()
		<-served
		if derr := srv.Drain(context.Background()); err == nil && derr != nil {
			err = fmt.Errorf("draining the daemon: %w", derr)
		}
	}()
	select {
	case <-join.done:
	case <-ctx.Done():
		return out, ctx.Err()
	case <-time.After(30 * time.Second):
		return out, errors.New("workers did not join within 30s")
	}
	client, err := service.NewClient(url)
	if err != nil {
		return out, err
	}
	// One untimed sweep, one instruction shorter than any timed one, warms
	// the connections, the journal directories and the code paths.
	if _, _, err := d.sweep(ctx, client, d.spec(-1), nil); err != nil {
		return out, fmt.Errorf("warm-up sweep: %w", err)
	}
	out.setup = setupSample{t0, time.Since(t0)}
	for k := 0; k < d.sweeps; k++ {
		results, g, err := d.sweep(ctx, client, d.spec(k), tracer)
		out.results = append(out.results, results...)
		if err != nil {
			return out, fmt.Errorf("sweep %d: %w", k, err)
		}
		out.groups = append(out.groups, g)
	}
	jnl := srv.Scheduler().Journal()
	if n := jnl.Stats().Rejected; n > 0 {
		return out, fmt.Errorf("the daemon's journal rejected %d uploads", n)
	}
	if tracer != nil {
		if err := tracer.readmit(jnl, filepath.Join(dir, "readmit")); err != nil {
			return out, err
		}
		tracer.fold(&d.svc)
	}
	return out, nil
}

// sweep submits one spec and follows its events to the terminal one. A
// cell's latency runs from the Submit call to its event reaching the
// client.
func (d *daemonBench) sweep(ctx context.Context, client *service.Client, spec sim.SweepSpec, tracer *svcTracer) ([]*core.Result, group, error) {
	results := make([]*core.Result, d.cellsPerSweep())
	submitted := time.Now()
	g := group{start: submitted, insts: float64(len(results) * spec.InstsPerTrace), lat: make([]float64, len(results))}
	id, err := client.Submit(ctx, spec)
	if err != nil {
		return nil, g, err
	}
	tracer.submitted(id, submitted)
	term, err := client.Events(ctx, id, func(ev service.CellEvent) error {
		if ev.Terminal {
			return nil
		}
		now := time.Now()
		switch {
		case ev.Err != "":
			return fmt.Errorf("cell %d failed: %s", ev.Index, ev.Err)
		case ev.Index < 0 || ev.Index >= len(results) || ev.Result == nil:
			return fmt.Errorf("bad event for cell %d", ev.Index)
		}
		results[ev.Index] = ev.Result
		g.lat[ev.Index] = ms(now.Sub(submitted))
		tracer.received(id, ev.Index, now)
		return nil
	})
	g.wall = time.Since(submitted)
	if err != nil {
		return results, g, err
	}
	if term.State != "done" || term.Done != len(results) {
		return results, g, fmt.Errorf("sweep ended %q with %d of %d cells", term.State, term.Done, len(results))
	}
	return results, g, nil
}

// reference recomputes sweeps on a local sim.Runner, without the daemon,
// HTTP or push-down: the last sweep of a round, or every sweep when full
// is set. Cells come back in the daemon's (mode, level, trace) order.
func (d *daemonBench) reference(ctx context.Context, full bool) ([]*core.Result, int, error) {
	from := d.sweeps - 1
	if full {
		from = 0
	}
	var out []*core.Result
	for k := from; k < d.sweeps; k++ {
		spec := d.spec(k)
		modes, err := spec.CircuitModes()
		if err != nil {
			return nil, 0, err
		}
		traces := spec.Traces()
		var specs []sim.PointSpec
		for _, m := range modes {
			for _, v := range spec.Levels() {
				specs = append(specs, sim.PointSpec{Label: sim.SweepLabel(v, m), Cfg: spec.PointConfig(v, m), Traces: traces})
			}
		}
		r := spec.NewRunner()
		r.Workers = runtime.GOMAXPROCS(0)
		res := make([]*core.Result, len(specs)*len(traces))
		var firstErr error
		for u := range r.Stream(ctx, specs) {
			if u.Err != nil {
				firstErr = errors.Join(firstErr, u.Err)
				continue
			}
			res[u.Point*len(traces)+u.Trace] = u.Result
		}
		if firstErr != nil {
			return nil, 0, firstErr
		}
		out = append(out, res...)
	}
	return out, from * d.cellsPerSweep(), nil
}

func (d *daemonBench) layerMetrics(_ context.Context, first []*core.Result, rec *recorder, m map[string]float64) error {
	levels := make(map[circuit.Millivolts]int, len(d.levels))
	for i, v := range d.levels {
		levels[circuit.Millivolts(v)] = i
	}
	m["model.paper_err_pct"] = paperErrPct(func(mode circuit.Mode, v circuit.Millivolts) *core.Result {
		mi := 0
		if mode == circuit.ModeIRAW {
			mi = 1
		}
		from := (mi*len(d.levels) + levels[v]) * daemonTraces
		return core.MergeResults(first[from : from+daemonTraces])
	})
	if rec == nil {
		return nil
	}
	s := &d.svc
	m["service.submit_ms_p50"] = median(s.submitMS)
	m["service.queue_wait_ms_p50"] = median(s.queueWaitMS)
	m["service.acquire_ms_p50"] = median(s.acquireMS)
	if s.acquires > 0 {
		m["service.acquire_empty_frac"] = float64(s.emptyAcquires) / float64(s.acquires)
	}
	m["service.complete_ms_p50"] = median(s.completeMS)
	m["service.complete_ms_p90"] = quantile(s.completeMS, 0.9)
	m["service.upload_kb_p50"] = median(s.uploadKB)
	m["service.lease_hold_ms_p50"] = median(s.leaseHoldMS)
	m["service.event_lag_ms_p50"] = median(s.eventLagMS)
	if s.cells > 0 {
		m["service.heartbeats_per_cell"] = float64(s.heartbeats) / float64(s.cells)
	}
	m["journal.admit_ms_p50"] = median(s.admitMS)
	m["journal.rejected"] = float64(s.rejected)
	return nil
}

// joinWatch closes done once each of want workers has polled for a lease.
type joinWatch struct {
	want int
	done chan struct{}

	mu   sync.Mutex
	seen map[string]bool
}

func newJoinWatch(want int) *joinWatch {
	return &joinWatch{want: want, done: make(chan struct{}), seen: make(map[string]bool)}
}

func (j *joinWatch) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/lease" {
			j.mu.Lock()
			if len(j.seen) < j.want {
				j.seen[r.URL.Query().Get("worker")] = true
				if len(j.seen) == j.want {
					close(j.done)
				}
			}
			j.mu.Unlock()
		}
		h.ServeHTTP(w, r)
	})
}

// svcStats accumulates the service measurements of every traced round.
type svcStats struct {
	submitMS, queueWaitMS, acquireMS, completeMS []float64
	uploadKB, leaseHoldMS, eventLagMS, admitMS   []float64
	acquires, emptyAcquires, heartbeats, cells   int
	rejected                                     uint64
}

type cellRef struct {
	sweep string
	index int
}

// leaseTimes is what the middleware saw of one lease.
type leaseTimes struct {
	cell                       cellRef
	key                        string
	acquired                   time.Time
	completeStart, completeEnd time.Time
}

// svcTracer is timing middleware around the daemon's handler. It records
// a span per request, keyed by endpoint and by lease or sweep ID, and
// joins them with the client's submit and event times.
type svcTracer struct {
	rec *recorder

	mu         sync.Mutex
	s          svcStats
	leases     map[string]*leaseTimes
	submitAt   map[string]time.Time
	receivedAt map[cellRef]time.Time
}

func newSvcTracer(rec *recorder) *svcTracer {
	return &svcTracer{
		rec:        rec,
		leases:     make(map[string]*leaseTimes),
		submitAt:   make(map[string]time.Time),
		receivedAt: make(map[cellRef]time.Time),
	}
}

// captureWriter keeps a copy of a small JSON response.
type captureWriter struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (c *captureWriter) WriteHeader(status int) {
	c.status = status
	c.ResponseWriter.WriteHeader(status)
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.body.Write(b)
	return c.ResponseWriter.Write(b)
}

func (t *svcTracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := r.URL.Path
		start := time.Now()
		switch {
		case r.Method == http.MethodPost && p == "/api/v1/lease":
			cw := &captureWriter{ResponseWriter: w, status: http.StatusOK}
			h.ServeHTTP(cw, r)
			end := time.Now()
			var l service.Lease
			empty := cw.status != http.StatusOK || json.Unmarshal(cw.body.Bytes(), &l) != nil
			t.rec.add("service.acquire", 0, l.ID, start, end)
			t.mu.Lock()
			t.s.acquires++
			t.s.acquireMS = append(t.s.acquireMS, ms(end.Sub(start)))
			if empty {
				t.s.emptyAcquires++
			} else {
				t.leases[l.ID] = &leaseTimes{cell: cellRef{l.Cell.Sweep, l.Cell.Index}, key: l.Cell.Key, acquired: end}
			}
			t.mu.Unlock()
		case r.Method == http.MethodPost && p == "/api/v1/sweeps":
			cw := &captureWriter{ResponseWriter: w, status: http.StatusOK}
			h.ServeHTTP(cw, r)
			end := time.Now()
			var resp struct {
				ID string `json:"id"`
			}
			_ = json.Unmarshal(cw.body.Bytes(), &resp) // a failed submit fails the client too
			t.rec.add("service.submit", 0, resp.ID, start, end)
			t.mu.Lock()
			t.s.submitMS = append(t.s.submitMS, ms(end.Sub(start)))
			t.mu.Unlock()
		case strings.HasPrefix(p, "/api/v1/lease/") && strings.HasSuffix(p, "/done"):
			id := strings.TrimSuffix(strings.TrimPrefix(p, "/api/v1/lease/"), "/done")
			h.ServeHTTP(w, r)
			end := time.Now()
			t.rec.add("service.complete", 0, id, start, end)
			t.mu.Lock()
			t.s.completeMS = append(t.s.completeMS, ms(end.Sub(start)))
			if r.ContentLength > 0 {
				t.s.uploadKB = append(t.s.uploadKB, float64(r.ContentLength)/1024)
			}
			if l := t.leases[id]; l != nil {
				l.completeStart, l.completeEnd = start, end
			}
			t.mu.Unlock()
		case strings.HasSuffix(p, "/heartbeat"):
			h.ServeHTTP(w, r)
			t.rec.add("service.heartbeat", 0, strings.TrimPrefix(p, "/api/v1/lease/"), start, time.Now())
			t.mu.Lock()
			t.s.heartbeats++
			t.mu.Unlock()
		default:
			h.ServeHTTP(w, r)
			name := "service.status"
			if strings.HasSuffix(p, "/events") {
				name = "service.events"
			}
			t.rec.add(name, 0, p, start, time.Now())
		}
	})
}

// submitted and received take the client's side of a sweep; both are
// no-ops on a nil tracer.
func (t *svcTracer) submitted(sweep string, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.submitAt[sweep] = at
	t.mu.Unlock()
}

func (t *svcTracer) received(sweep string, index int, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.receivedAt[cellRef{sweep, index}] = at
	t.mu.Unlock()
}

// readmit re-verifies every completed cell's sealed entry, as the daemon
// did on upload: GetRaw from the daemon's journal, then Admit into a
// scratch journal with fsync on.
func (t *svcTracer) readmit(jnl *journal.Journal, dir string) error {
	scratch, err := journal.Open(dir)
	if err != nil {
		return err
	}
	scratch.SetSync(true)
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, l := range t.leases {
		if l.completeEnd.IsZero() {
			continue
		}
		raw, ok := jnl.GetRaw(l.key)
		if !ok {
			return fmt.Errorf("lease %s: the daemon's journal has no entry %s", id, l.key)
		}
		sp := t.rec.start("journal.admit", 0, id)
		from := time.Now()
		_, err := scratch.Admit(l.key, raw)
		t.s.admitMS = append(t.s.admitMS, ms(time.Since(from)))
		t.rec.end(sp)
		if err != nil {
			return fmt.Errorf("re-admitting %s: %w", l.key, err)
		}
	}
	t.s.rejected += scratch.Stats().Rejected
	return nil
}

// fold derives the per-lease measurements and adds this round's numbers
// to s.
func (t *svcTracer) fold(s *svcStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.leases {
		if l.completeEnd.IsZero() {
			continue
		}
		s.cells++
		if at, ok := t.submitAt[l.cell.sweep]; ok {
			s.queueWaitMS = append(s.queueWaitMS, ms(l.acquired.Sub(at)))
		}
		s.leaseHoldMS = append(s.leaseHoldMS, ms(l.completeStart.Sub(l.acquired)))
		if at, ok := t.receivedAt[l.cell]; ok {
			s.eventLagMS = append(s.eventLagMS, ms(at.Sub(l.completeEnd)))
		}
	}
	s.submitMS = append(s.submitMS, t.s.submitMS...)
	s.acquireMS = append(s.acquireMS, t.s.acquireMS...)
	s.completeMS = append(s.completeMS, t.s.completeMS...)
	s.uploadKB = append(s.uploadKB, t.s.uploadKB...)
	s.admitMS = append(s.admitMS, t.s.admitMS...)
	s.acquires += t.s.acquires
	s.emptyAcquires += t.s.emptyAcquires
	s.heartbeats += t.s.heartbeats
	s.rejected += t.s.rejected
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
