package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the tests
// check the program against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// lastLine parses the result line a run printed last.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// TestQuickWorkloadsPrintEveryMetric runs all four workloads at the quick
// size, untraced and traced, and checks that each prints every metric
// BENCHMARK.json names, with its unit, and passes its correctness gate.
func TestQuickWorkloadsPrintEveryMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%s) in BENCHMARK.json, %q (%s) here", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, def := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			args := []string{"-workload", def.name, "-quick", "-seconds", "0.05", "-trace", trace, "-out", t.TempDir()}
			if code := run(context.Background(), args, &out, io.Discard); code != 0 {
				t.Fatalf("%s -trace %s exited %d:\n%s", def.name, trace, code, out.String())
			}
			res := lastLine(t, out.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s -trace %s: correct %v, %d of %d failed", def.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := b.EndToEnd
			if trace == "1" {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s -trace %s printed %d metrics, BENCHMARK.json names %d", def.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s -trace %s: %s missing", def.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s -trace %s: %s in %q, BENCHMARK.json says %q", def.name, trace, m.Name, got.Unit, m.Unit)
				case !strings.Contains(out.String(), m.Name+" "):
					t.Errorf("%s -trace %s: %s not printed by name", def.name, trace, m.Name)
				}
			}
		}
	}
}

// TestCorruptedResultFailsGate flips one byte of one cell's result: at the
// default seed both the digest and the reference path catch it, at another
// seed the reference path alone.
func TestCorruptedResultFailsGate(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		o := &options{workload: "engine-membound", seed: seed, seconds: 0.05, quick: true, out: t.TempDir(), corrupt: true}
		var out bytes.Buffer
		if code := runOne(context.Background(), o, &out, io.Discard); code == 0 {
			t.Fatalf("seed %d: a corrupted result exited 0:\n%s", seed, out.String())
		}
		if res := lastLine(t, out.String()); res.Correct {
			t.Errorf("seed %d: a corrupted result reported correct", seed)
		}
		if !strings.Contains(out.String(), "differs from the reference path") {
			t.Errorf("seed %d: the reference path did not flag the cell:\n%s", seed, out.String())
		}
	}
}
