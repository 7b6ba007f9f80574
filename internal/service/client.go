package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"lowvcc/internal/core"
	"lowvcc/internal/sim"
)

// Client talks to a sweep daemon. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client

	// ClientID, when set, identifies this client to the daemon's per-client
	// admission control (sent as the X-Client-ID header). Unset, the daemon
	// falls back to the peer address.
	ClientID string
}

// NewClient targets a daemon at baseURL (e.g. "http://127.0.0.1:7077").
func NewClient(baseURL string) (*Client, error) {
	base, err := normalizeBase(baseURL)
	if err != nil {
		return nil, err
	}
	return &Client{base: base, hc: &http.Client{}}, nil
}

func normalizeBase(baseURL string) (string, error) {
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	u, err := url.Parse(baseURL)
	if err != nil || u.Host == "" {
		return "", fmt.Errorf("service: bad daemon address %q", baseURL)
	}
	return strings.TrimRight(u.String(), "/"), nil
}

// Submit sends the spec and returns the daemon's sweep ID. Backpressure
// (HTTP 429) surfaces as *BusyError with the server's Retry-After; a
// draining daemon (503) as ErrDraining.
func (c *Client) Submit(ctx context.Context, spec sim.SweepSpec) (string, error) {
	data, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/api/v1/sweeps", bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.ClientID != "" {
		req.Header.Set("X-Client-ID", c.ClientID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusCreated:
		var out struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return "", fmt.Errorf("service: decoding submit response: %w", err)
		}
		return out.ID, nil
	case http.StatusTooManyRequests:
		retry := 2 * time.Second
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil {
				retry = time.Duration(secs) * time.Second
			}
		}
		return "", &BusyError{RetryAfter: retry}
	case http.StatusServiceUnavailable:
		return "", ErrDraining
	default:
		return "", fmt.Errorf("service: submit: %s: %s", resp.Status, readErrBody(resp.Body))
	}
}

// Status fetches one sweep's summary.
func (c *Client) Status(ctx context.Context, id string) (SweepStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1/sweeps/"+url.PathEscape(id), nil)
	if err != nil {
		return SweepStatus{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return SweepStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return SweepStatus{}, fmt.Errorf("service: status: %s: %s", resp.Status, readErrBody(resp.Body))
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return SweepStatus{}, err
	}
	return st, nil
}

// Events follows the sweep's progress stream, invoking fn per event, and
// returns the terminal event. An fn error aborts the stream and is
// returned.
func (c *Client) Events(ctx context.Context, id string, fn func(CellEvent) error) (CellEvent, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1/sweeps/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return CellEvent{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return CellEvent{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return CellEvent{}, fmt.Errorf("service: events: %s: %s", resp.Status, readErrBody(resp.Body))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev CellEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return CellEvent{}, fmt.Errorf("service: bad event line: %w", err)
		}
		if fn != nil {
			if err := fn(ev); err != nil {
				return CellEvent{}, err
			}
		}
		if ev.Terminal {
			return ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return CellEvent{}, err
	}
	return CellEvent{}, fmt.Errorf("service: event stream for %s ended without a terminal event", id)
}

// Collect runs the spec on the daemon and collects its cell events as
// sim.Runner.Collect collects a local stream of spec.PointSpecs(): one
// sim.Collector places each event by its Index (the spec's (point, trace)
// order), so aggs[i], point i's aggregate, is bit-identical to a local
// run's. onCell, when non-nil, sees every update as it lands, marked
// Daemon and counted by the daemon's Done and Total (sim.Runner.Observe
// shows them on -progress); its error ends the call. The daemon runs
// every sweep in partial mode, so failed cells come back as a
// *sim.PartialError beside the other aggregates. An event out of range,
// repeated, or whose label, mode, level or trace disagrees with its index
// fails the call.
func (c *Client) Collect(ctx context.Context, spec sim.SweepSpec, onCell func(sim.PointUpdate) error) ([]*core.Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	points, cells := spec.Expand(), spec.Cells()
	traces := cells / len(points)
	id, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}

	col := sim.NewCollector(slices.Repeat([]int{traces}, len(points)))
	term, err := c.Events(ctx, id, func(ev CellEvent) error {
		if ev.Terminal {
			return nil
		}
		point, tr := ev.Index/traces, ev.Index%traces
		u := sim.PointUpdate{Point: point, Trace: tr, Label: ev.Label, TraceName: ev.TraceName,
			Result: ev.Result, Replayed: ev.Replayed, Derived: ev.Derived, Daemon: true,
			Done: ev.Done, Total: ev.Total}
		if ev.Err != "" {
			u.Err = &sim.CellError{Label: ev.Label, TraceName: ev.TraceName, Point: point, Trace: tr, Err: errors.New(ev.Err)}
		}
		if err := col.Add(u); err != nil { // an index outside the spec, or a repeat
			return fmt.Errorf("service: event %d: %w", ev.Index, err)
		}
		if p := points[point]; ev.Total != cells || ev.Label != p.Label || ev.Mode != p.Config.Mode.String() || ev.VccMV != int(p.Config.Vcc) || ev.TraceIdx != tr {
			return fmt.Errorf("service: event %d of %d (%q %s %dmV trace %d) does not match its cell index in the spec's %d cells", ev.Index, ev.Total, ev.Label, ev.Mode, ev.VccMV, ev.TraceIdx, cells)
		}
		if onCell == nil {
			return nil
		}
		return onCell(u)
	})
	if err != nil {
		return nil, err
	}
	if term.State != "done" && term.State != "failed" {
		return nil, fmt.Errorf("service: sweep %s ended %q (daemon drained mid-sweep; resubmit to resume from the journal)", id, term.State)
	}
	return col.Result()
}

func readErrBody(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 512))
	return strings.TrimSpace(string(b))
}

// httpSource speaks the daemon's lease endpoints — the external worker's
// CellSource.
type httpSource struct {
	base string
	hc   *http.Client
}

func newHTTPSource(baseURL string) (*httpSource, error) {
	base, err := normalizeBase(baseURL)
	if err != nil {
		return nil, err
	}
	return &httpSource{base: base, hc: &http.Client{Timeout: 10 * time.Second}}, nil
}

func (h *httpSource) Acquire(ctx context.Context, worker string, wait time.Duration) (*Lease, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		h.base+"/api/v1/lease?worker="+url.QueryEscape(worker)+"&wait_ms="+strconv.FormatInt(wait.Milliseconds(), 10), nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusOK:
		var l Lease
		if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
			return nil, err
		}
		return &l, nil
	default:
		return nil, fmt.Errorf("service: acquire: %s: %s", resp.Status, readErrBody(resp.Body))
	}
}

func (h *httpSource) Heartbeat(ctx context.Context, leaseID string) error {
	return h.leaseCall(ctx, leaseID, "heartbeat", nil)
}

func (h *httpSource) Complete(ctx context.Context, leaseID, worker, errMsg string, entry []byte) error {
	// entry is the sealed journal-entry upload (base64 over JSON); the
	// lease ID in the URL doubles as the request's idempotency token.
	body, err := json.Marshal(struct {
		Worker string `json:"worker"`
		Err    string `json:"err"`
		Entry  []byte `json:"entry,omitempty"`
	}{worker, errMsg, entry})
	if err != nil {
		return err
	}
	return h.leaseCall(ctx, leaseID, "done", body)
}

// leaseCall posts body to one lease's op endpoint ("heartbeat" or "done")
// and maps the answer: 204 is success, 410 is ErrLeaseLost.
func (h *httpSource) leaseCall(ctx context.Context, leaseID, op string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		h.base+"/api/v1/lease/"+url.PathEscape(leaseID)+"/"+op, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil
	case http.StatusGone:
		return ErrLeaseLost
	default:
		return fmt.Errorf("service: lease %s: %s", op, resp.Status)
	}
}
