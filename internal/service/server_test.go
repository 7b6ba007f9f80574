package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/sim"
)

// newTestDaemon stands up a full HTTP daemon over httptest and returns it
// with its base URL. Workers < 0 means external-workers-only.
func newTestDaemon(t *testing.T, opts ServerOpts) (*Server, string) {
	t.Helper()
	if opts.JournalDir == "" {
		opts.JournalDir = t.TempDir()
	}
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = time.Second
	}
	srv, warn, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if warn != "" {
		t.Fatalf("fresh daemon warned: %s", warn)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Scheduler().Close()
	})
	return srv, ts.URL
}

// TestHTTPEndToEndExternalWorker: the full wire path — client submits over
// HTTP, an external worker (in-process here, but speaking only HTTP and
// journaling privately) executes every cell, the client streams ndjson
// events to the terminal, and the journal matches a local run.
func TestHTTPEndToEndExternalWorker(t *testing.T) {
	spec := testSpec()
	ref := localReferenceJournal(t, spec)
	dir := t.TempDir()
	srv, base := newTestDaemon(t, ServerOpts{
		SchedulerOpts: SchedulerOpts{JournalDir: dir},
		Workers:       -1,
	})

	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- Work(wctx, base, WorkerOpts{Name: "ext-1", Poll: 10 * time.Millisecond})
	}()

	cl, err := NewClient(base)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	id, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	if st, err := cl.Status(ctx, id); err != nil || st.Total != cellCount(spec) {
		t.Fatalf("status = (%+v, %v), want %d total cells", st, err, cellCount(spec))
	}

	seen := make(map[int]int)
	term, err := cl.Events(ctx, id, func(ev CellEvent) error {
		if !ev.Terminal && ev.Err == "" {
			seen[ev.Index]++
			if ev.Worker != "ext-1" {
				t.Errorf("cell %d completed by %q, want ext-1", ev.Index, ev.Worker)
			}
			if ev.Result == nil {
				t.Errorf("cell %d event carries no result", ev.Index)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if term.State != "done" {
		t.Fatalf("sweep ended %q, want done", term.State)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("cell %d completed %d times over HTTP", idx, n)
		}
	}
	if len(seen) != cellCount(spec) {
		t.Fatalf("saw %d cells, want %d", len(seen), cellCount(spec))
	}
	assertJournalsEqual(t, ref, dir, "http external worker")

	// Health endpoints: live and ready while serving...
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", ep, resp.StatusCode)
		}
	}

	// ...and after a drain, live but not ready, refusing submissions.
	wcancel()
	<-workerDone
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain = %d, want 503", resp.StatusCode)
	}
	if _, err := cl.Submit(ctx, spec); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain = %v, want ErrDraining", err)
	}
}

// TestHTTPBackpressure429: an over-capacity submission comes back over the
// wire as *BusyError with the server's Retry-After.
func TestHTTPBackpressure429(t *testing.T) {
	spec := testSpec()
	_, base := newTestDaemon(t, ServerOpts{
		SchedulerOpts: SchedulerOpts{MaxQueuedCells: cellCount(spec)},
		Workers:       -1,
	})
	cl, err := NewClient(base)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cl.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Submit(ctx, singlePointSpec())
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("over-capacity submit = %v, want *BusyError", err)
	}
	if busy.RetryAfter <= 0 {
		t.Fatalf("Retry-After = %v, want positive", busy.RetryAfter)
	}
}

// TestClientStreamLevels: a LevelFold fed by the client's Collect of
// daemon cell events emits the same levels, in the same order, with the
// same merged stats, as one fed by the local sim.Runner.Collect, and both
// collectors return the same aggregates.
func TestClientStreamLevels(t *testing.T) {
	spec := testSpec()
	modes, err := spec.CircuitModes()
	if err != nil {
		t.Fatal(err)
	}

	type row struct {
		v   circuit.Millivolts
		pts map[circuit.Mode]*sim.Point
	}
	fold := func(rows *[]row) *sim.LevelFold {
		return sim.NewLevelFold(modes, spec.Levels(), len(spec.Traces()),
			func(v circuit.Millivolts, pts map[circuit.Mode]*sim.Point, fails map[circuit.Mode]*sim.CellError) error {
				if len(fails) != 0 {
					t.Fatalf("sweep failed at %v: %v", v, fails)
				}
				*rows = append(*rows, row{v, pts})
				return nil
			})
	}
	var local []row
	r := spec.NewRunner()
	r.Workers = 2
	localAggs, err := r.Collect(context.Background(), spec.PointSpecs(), fold(&local).Add)
	if err != nil {
		t.Fatal(err)
	}

	_, base := newTestDaemon(t, ServerOpts{Workers: 2})
	cl, err := NewClient(base)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var remote []row
	remoteAggs, err := cl.Collect(ctx, spec, fold(&remote).Add)
	if err != nil {
		t.Fatal(err)
	}

	if len(remote) != len(local) {
		t.Fatalf("daemon path emitted %d levels, local %d", len(remote), len(local))
	}
	for i := range local {
		if remote[i].v != local[i].v {
			t.Fatalf("level %d: daemon emitted %v, local %v (order must match)", i, remote[i].v, local[i].v)
		}
		for _, m := range modes {
			lp, rp := local[i].pts[m], remote[i].pts[m]
			if lp == nil || rp == nil {
				t.Fatalf("level %v mode %v missing a point (local %v, remote %v)", local[i].v, m, lp, rp)
			}
			if rp.Agg.Run != lp.Agg.Run || rp.Agg.Time != lp.Agg.Time || rp.Agg.Plan != lp.Agg.Plan {
				t.Fatalf("level %v mode %v: daemon aggregate differs from local", local[i].v, m)
			}
		}
	}
	if !reflect.DeepEqual(remoteAggs, localAggs) {
		t.Fatal("the client's Collect aggregates differ from the local runner's")
	}
}

// TestClientStreamLevelsRejectsBadEvents: the client's Collect places
// events by Index, so an event outside the spec's cells, one whose label,
// mode, level or trace disagrees with its index, a repeated cell, a wrong
// cell total and a cell with neither result nor error each fail the call
// instead of being placed (or panicking). Every case carries the
// otherwise complete sweep, which on its own succeeds.
func TestClientStreamLevelsRejectsBadEvents(t *testing.T) {
	spec := testSpec() // 2 modes x 2 levels x 7 traces
	cells := spec.Cells()
	points := spec.Expand()
	sweep := func(edit func(*CellEvent)) []CellEvent {
		events := make([]CellEvent, cells)
		for i := range events {
			p := points[i/7]
			events[i] = CellEvent{
				Sweep: "s", Index: i, Label: p.Label, Mode: p.Config.Mode.String(), VccMV: int(p.Config.Vcc),
				TraceIdx: i % 7, Result: &core.Result{}, Total: cells,
			}
		}
		edit(&events[3])
		return events
	}
	cases := map[string][]CellEvent{
		"complete sweep":     sweep(func(*CellEvent) {}),
		"index past the end": append(sweep(func(*CellEvent) {}), CellEvent{Sweep: "s", Index: cells, Total: cells, Result: &core.Result{}}),
		"negative index":     append(sweep(func(*CellEvent) {}), CellEvent{Sweep: "s", Index: -2, Total: cells, Result: &core.Result{}}),
		"repeated cell":      append(sweep(func(*CellEvent) {}), sweep(func(*CellEvent) {})[5]),
		"wrong label":        sweep(func(ev *CellEvent) { ev.Label = points[1].Label }),
		"wrong mode":         sweep(func(ev *CellEvent) { ev.Mode = "iraw" }),
		"wrong level":        sweep(func(ev *CellEvent) { ev.VccMV = 400 }),
		"wrong trace":        sweep(func(ev *CellEvent) { ev.TraceIdx = 4 }),
		"wrong total":        sweep(func(ev *CellEvent) { ev.Total = cells + 1 }),
		"no result":          sweep(func(ev *CellEvent) { ev.Result = nil }),
	}
	for name, events := range cases {
		t.Run(name, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("POST /api/v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusCreated)
				w.Write([]byte(`{"id":"s"}`))
			})
			mux.HandleFunc("GET /api/v1/sweeps/s/events", func(w http.ResponseWriter, r *http.Request) {
				enc := json.NewEncoder(w)
				for _, ev := range events {
					enc.Encode(ev)
				}
				enc.Encode(CellEvent{Sweep: "s", Index: -1, Total: cells, Terminal: true, State: "done"})
			})
			ts := httptest.NewServer(mux)
			defer ts.Close()
			cl, err := NewClient(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			landed := 0
			aggs, err := cl.Collect(context.Background(), spec, func(sim.PointUpdate) error {
				landed++
				return nil
			})
			switch {
			case name == "complete sweep" && (err != nil || landed != cells || len(aggs) != len(points)):
				t.Fatalf("complete sweep: %d cells, %d aggregates, err %v", landed, len(aggs), err)
			case name != "complete sweep" && err == nil:
				t.Fatal("Collect accepted an inconsistent event")
			}
		})
	}
}

// TestHTTPCompleteRejectsUndecodableBody: a Complete body the daemon
// cannot decode — garbage, or an upload over the 8 MiB cap — answers 400
// and leaves the lease untouched: no attempt is charged (MaxAttempts 1
// would fail the cell on the first charge), the lease still heartbeats,
// and a following valid Complete on the same lease admits the entry.
func TestHTTPCompleteRejectsUndecodableBody(t *testing.T) {
	// A lease TTL far above the test's own work (simulating the cell and
	// decoding an 8 MiB body take over a second under -race on a busy
	// host), so only a rejected body, never expiry, could end the lease.
	srv, base := newTestDaemon(t, ServerOpts{
		SchedulerOpts: SchedulerOpts{MaxAttempts: 1, LeaseTTL: time.Minute},
		Workers:       -1,
	})
	ctx := context.Background()
	cl, err := NewClient(base)
	if err != nil {
		t.Fatal(err)
	}
	id, err := cl.Submit(ctx, singlePointSpec())
	if err != nil {
		t.Fatal(err)
	}
	src, err := newHTTPSource(base)
	if err != nil {
		t.Fatal(err)
	}
	lease, err := src.Acquire(ctx, "w", 0)
	if err != nil || lease == nil {
		t.Fatalf("acquire: (%v, %v)", lease, err)
	}
	entry := sealedEntry(t, lease)

	url := base + "/api/v1/lease/" + lease.ID + "/done"
	for name, body := range map[string]string{
		"garbage":  "{not json",
		"oversize": `{"worker":"w","entry":"` + strings.Repeat("A", 8<<20) + `"}`,
	} {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s Complete body: status %d, want 400", name, resp.StatusCode)
		}
	}
	if st, err := srv.Scheduler().Status(id); err != nil || st.Done != 0 || st.Failed != 0 {
		t.Fatalf("after rejected bodies: status (%+v, %v), want the cell still leased", st, err)
	}
	if err := src.Heartbeat(ctx, lease.ID); err != nil {
		t.Fatalf("lease lost after a rejected body: %v", err)
	}

	if err := src.Complete(ctx, lease.ID, "w", "", entry); err != nil {
		t.Fatalf("valid Complete after rejected bodies: %v", err)
	}
	if _, ok := srv.Scheduler().Journal().Get(lease.Cell.Key); !ok {
		t.Fatal("valid upload did not land in the daemon journal")
	}
	if st, err := srv.Scheduler().Status(id); err != nil || st.Done != 1 || st.Failed != 0 {
		t.Fatalf("after valid Complete: status (%+v, %v), want the cell done", st, err)
	}
}

// fuzzLease stands up a daemon (no worker slots) with one sweep submitted
// and its first cell leased, and returns the daemon, the sweep and the
// lease.
func fuzzLease(tb testing.TB) (*Server, string, *Lease) {
	tb.Helper()
	srv, warn, err := NewServer(ServerOpts{
		SchedulerOpts: SchedulerOpts{JournalDir: tb.TempDir(), LeaseTTL: time.Minute, MaxAttempts: 3},
		Workers:       -1,
	})
	if err != nil || warn != "" {
		tb.Fatalf("daemon: (%q, %v)", warn, err)
	}
	tb.Cleanup(func() { srv.Scheduler().Close() })
	s := srv.Scheduler()
	id, err := s.Submit(singlePointSpec())
	if err != nil {
		tb.Fatal(err)
	}
	lease, err := s.Acquire(context.Background(), "w", 0)
	if err != nil || lease == nil {
		tb.Fatalf("acquire: (%v, %v)", lease, err)
	}
	return srv, id, lease
}

// FuzzCompleteBody sends arbitrary bytes as the Complete body of a live
// lease on a fresh daemon. The handler never panics and answers 204 or
// 400. A 400 leaves the lease as it was: still held, no attempt charged,
// nothing journaled. A 204 charges at most one attempt, and the cell is
// journaled only with the very entry bytes of an error-free body — bytes
// journal.Admit accepted, since Complete admits through nothing else.
func FuzzCompleteBody(f *testing.F) {
	_, _, lease := fuzzLease(f)
	valid, err := json.Marshal(map[string]any{"worker": "w", "entry": sealedEntry(f, lease)})
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 1 // inside the base64 entry
	for _, seed := range []string{
		string(valid), string(valid[:len(valid)/2]), string(flipped), string(valid) + "trailing",
		"", "{not json", "null", "[]", "{}", `{"worker":"w"}`, `{"worker":"w","err":"boom"}`,
		`{"entry":"!!!"}`, `{"entry":null,"err":""}`, `{"worker":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv, id, lease := fuzzLease(t)
		s := srv.Scheduler()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/lease/"+lease.ID+"/done", bytes.NewReader(body)))

		s.mu.Lock()
		_, held := s.leases[lease.ID]
		attempts := s.sweeps[id].attempts[lease.Cell.Index]
		s.mu.Unlock()
		stored, journaled := s.Journal().GetRaw(lease.Cell.Key)
		switch rec.Code {
		case http.StatusBadRequest:
			if !held || attempts != 0 || journaled {
				t.Fatalf("400 changed the lease: held %v, attempts %d, journaled %v", held, attempts, journaled)
			}
		case http.StatusNoContent:
			if held || attempts > 1 {
				t.Fatalf("204 left the lease held (%v) or charged %d attempts", held, attempts)
			}
			var sent struct {
				Err   string `json:"err"`
				Entry []byte `json:"entry"`
			}
			_ = json.NewDecoder(bytes.NewReader(body)).Decode(&sent)
			if journaled && (sent.Err != "" || !bytes.Equal(stored, sent.Entry)) {
				t.Fatal("journaled an entry the body did not carry as an error-free upload")
			}
			if journaled == (attempts == 1) {
				t.Fatalf("journaled %v with %d attempts charged: want exactly one of the two", journaled, attempts)
			}
		default:
			t.Fatalf("status %d, want 204 or 400", rec.Code)
		}
	})
}

// TestHTTPSubmitRejectsUnknownFields: a spec carrying a field the daemon
// does not know — the retired warm-up mode field included — is a 400,
// never a sweep silently run under a different configuration than the
// client asked for.
func TestHTTPSubmitRejectsUnknownFields(t *testing.T) {
	_, base := newTestDaemon(t, ServerOpts{Workers: -1})
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(base+"/api/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	const spec = `"insts_per_trace":2000,"seeds_per_profile":1,"modes":["iraw"],"levels_mv":[500]`
	const retired = `"warm` + `_mode"` // the removed warm-up mode field's JSON name
	for _, extra := range []string{`,` + retired + `:"timed"`, `,` + retired + `:"functional"`, `,"bogus":1`} {
		if got := post("{" + spec + extra + "}"); got != http.StatusBadRequest {
			t.Errorf("spec with %s: status %d, want 400", extra[1:], got)
		}
	}
	if got := post("{" + spec + "}"); got != http.StatusCreated {
		t.Fatalf("known-fields spec: status %d, want 201", got)
	}
}

// TestHTTPSubmitRejectsHostilePoints: a spec whose explicit point would
// make a worker allocate without bound, names an unknown trace transform
// or whose level is off the 25 mV step is a 400 at Submit, and no cell of
// it is ever leased; a sane explicit point is admitted and leased.
func TestHTTPSubmitRejectsHostilePoints(t *testing.T) {
	srv, base := newTestDaemon(t, ServerOpts{Workers: -1})
	cl, err := NewClient(base)
	if err != nil {
		t.Fatal(err)
	}
	point := sim.SpecPoint{Label: "resched", Config: core.DefaultConfig(500, circuit.ModeIRAW), Traces: sim.TraceSet{Transform: "reschedule", MinGap: 8}}
	withPoint := func(edit func(*sim.SpecPoint)) sim.SweepSpec {
		p := point
		edit(&p)
		return sim.SweepSpec{InstsPerTrace: 1000, SeedsPerProfile: 1, Points: []sim.SpecPoint{p}}
	}
	for name, spec := range map[string]sim.SweepSpec{
		"oversized UL1":     withPoint(func(p *sim.SpecPoint) { p.Config.Hierarchy.UL1.Sets = 1 << 24 }),
		"oversized IQ":      withPoint(func(p *sim.SpecPoint) { p.Config.IQ.Size = 1 << 20 }),
		"unknown transform": withPoint(func(p *sim.SpecPoint) { p.Traces.Transform = "shuffle" }),
		"off-step level":    {InstsPerTrace: 1000, SeedsPerProfile: 1, Modes: []string{"iraw"}, LevelsMV: []int{510}},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := cl.Submit(t.Context(), spec); err == nil || !strings.Contains(err.Error(), "400") {
				t.Fatalf("Submit err = %v, want a 400", err)
			}
			if lease, err := srv.Scheduler().Acquire(t.Context(), "w", 0); lease != nil || err != nil {
				t.Fatalf("a rejected spec left a lease %+v (err %v)", lease, err)
			}
		})
	}
	if _, err := cl.Submit(t.Context(), withPoint(func(*sim.SpecPoint) {})); err != nil {
		t.Fatal(err)
	}
	lease, err := srv.Scheduler().Acquire(t.Context(), "w", 0)
	if err != nil || lease == nil || lease.Cell.Spec.Points[0] != point {
		t.Fatalf("sane point: lease %+v, err %v", lease, err)
	}
}
