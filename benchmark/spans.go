package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: the benchmark opens it before the
// call and closes it after. Times are nanoseconds since the recorder's
// epoch. Parent is the enclosing span's ID (0 for a root span) and Cell
// groups the spans of one cell, sweep or lease.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent,omitempty"`
	Cell   string `json:"cell,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced rounds pass nil and pay one nil check per
// call site.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its ID for end.
func (r *recorder) start(name string, parent int, cell string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Name: name, Start: now, End: -1, Parent: parent, Cell: cell})
	return len(r.spans)
}

// end closes the span start returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose bounds the caller measured itself, as the HTTP
// middleware does once a handler has returned.
func (r *recorder) add(name string, parent int, cell string, from, to time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Name: name,
		Start: from.Sub(r.epoch).Nanoseconds(), End: to.Sub(r.epoch).Nanoseconds(),
		Parent: parent, Cell: cell,
	})
	return len(r.spans)
}

// snapshot copies the closed spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// durationsMS returns the duration of every closed span called name, in
// milliseconds.
func (r *recorder) durationsMS(name string) []float64 {
	var ms []float64
	for _, s := range r.snapshot() {
		if s.Name == name {
			ms = append(ms, float64(s.End-s.Start)/1e6)
		}
	}
	return ms
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children count once
// and a child's time outside its parent does not count.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered measures how much of [from, to) the union of ivs covers.
func covered(from, to int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		lo, hi := max(iv[0], from), min(iv[1], to)
		if lo < hi {
			clipped = append(clipped, [2]int64{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curLo, curHi int64
	for i, iv := range clipped {
		switch {
		case i == 0:
			curLo, curHi = iv[0], iv[1]
		case iv[0] > curHi:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		case iv[1] > curHi:
			curHi = iv[1]
		}
	}
	if len(clipped) > 0 {
		total += curHi - curLo
	}
	return total
}

// write stores the spans, each with its self time, as
// dir/<workload>.spans.json.
func (r *recorder) write(dir, workload string) (string, error) {
	spans := r.snapshot()
	self := selfTimes(spans)
	type outSpan struct {
		span
		Self int64 `json:"self_ns"`
	}
	out := struct {
		Workload string    `json:"workload"`
		Spans    []outSpan `json:"spans"`
	}{Workload: workload, Spans: make([]outSpan, len(spans))}
	for i, s := range spans {
		out.Spans[i] = outSpan{s, self[s.ID]}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return "", fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
