package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cell", Start: 0, End: 100},
		// Overlapping children count once: [10, 50) covers 40.
		{ID: 2, Name: "a", Start: 10, End: 30, Parent: 1},
		{ID: 3, Name: "b", Start: 20, End: 50, Parent: 1},
		// A child running past its parent counts only inside it: 10.
		{ID: 4, Name: "c", Start: 90, End: 120, Parent: 1},
		// A grandchild reduces its parent's self time, not the cell's.
		{ID: 5, Name: "d", Start: 22, End: 27, Parent: 3},
		// A child wholly outside its parent covers nothing.
		{ID: 6, Name: "e", Start: 200, End: 210, Parent: 1},
	}
	want := map[int]int64{1: 50, 2: 20, 3: 25, 4: 30, 5: 5, 6: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
}

func TestRecorderWritesClosedSpansWithSelfTime(t *testing.T) {
	var nilRec *recorder
	if id := nilRec.start("x", 0, ""); id != 0 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	nilRec.end(0)

	r := newRecorder()
	outer := r.start("outer", 0, "cell-1")
	inner := r.start("inner", outer, "cell-1")
	r.end(inner)
	r.end(outer)
	r.start("open", 0, "") // never closed: not written
	dir := t.TempDir()
	path, err := r.write(dir, "w")
	if err != nil {
		t.Fatal(err)
	}
	if path != filepath.Join(dir, "w.spans.json") {
		t.Fatalf("wrote %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Spans []struct {
			Name  string `json:"name"`
			Start int64  `json:"start_ns"`
			End   int64  `json:"end_ns"`
			Self  int64  `json:"self_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Spans) != 2 {
		t.Fatalf("%d spans written, want 2", len(out.Spans))
	}
	o, in := out.Spans[0], out.Spans[1]
	if o.Self != (o.End-o.Start)-(in.End-in.Start) || in.Self != in.End-in.Start {
		t.Fatalf("self times %d and %d do not match the span bounds %+v", o.Self, in.Self, out.Spans)
	}
}
