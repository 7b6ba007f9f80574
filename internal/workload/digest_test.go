package workload

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"lowvcc/internal/trace"
)

// digestFile pins the sha256 of trace.Write for every case of
// digestCases. Generation is deterministic in (profile, n, seed) and must
// not depend on GOMAXPROCS, so the same file holds under any CPU count.
const digestFile = "testdata/trace_digests.txt"

type digestCase struct {
	name string
	gen  func() []*trace.Trace
}

// digestCases lists the pinned traces: every profile plus MemBound at a
// spread of sizes and seeds, the benchmark's MemBound traces, long traces
// and one suite.
func digestCases() []digestCase {
	var cs []digestCase
	one := func(tr *trace.Trace) []*trace.Trace { return []*trace.Trace{tr} }
	for _, p := range append(Profiles(), MemBound()) {
		for _, n := range []int{1, 7, 5000, 50000} {
			for _, seed := range []uint64{1, 2, 1000} {
				cs = append(cs, digestCase{
					name: fmt.Sprintf("generate/%s/n=%d/seed=%d", p.Name, n, seed),
					gen:  func() []*trace.Trace { return one(Generate(p, n, seed)) },
				})
			}
		}
	}
	for _, seed := range []uint64{1000, 1001} {
		cs = append(cs, digestCase{
			name: fmt.Sprintf("generate/membound/n=150000/seed=%d", seed),
			gen:  func() []*trace.Trace { return one(Generate(MemBound(), 150000, seed)) },
		})
	}
	for _, n := range []int{300000, 40000} {
		for _, seed := range []uint64{1, 3, 5} {
			cs = append(cs, digestCase{
				name: fmt.Sprintf("longtrace/n=%d/seed=%d", n, seed),
				gen:  func() []*trace.Trace { return one(LongTrace(n, seed)) },
			})
		}
	}
	cs = append(cs, digestCase{
		name: "suite/n=5016/seeds=2",
		gen: func() []*trace.Trace {
			// Drop any cached copy so the suite is generated under the
			// GOMAXPROCS the subtest set.
			suiteCache.Delete(suiteKey{5016, 2})
			return Suite(5016, 2)
		},
	})
	return cs
}

// traceDigest hashes the binary encoding of each trace in order.
func traceDigest(t *testing.T, trs []*trace.Trace) string {
	h := sha256.New()
	for _, tr := range trs {
		if err := trace.Write(h, tr); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func readDigests(t *testing.T) map[string]string {
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, line)
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestTraceDigests pins every generated byte: a change to the generator,
// its samplers or the trace encoding that moves any trace fails here. It
// runs once on one CPU and once at the default GOMAXPROCS, so parallel
// generation must reproduce the sequential bytes. Each pass starts with a
// collection that frees the Zipf tables the previous one built, so it
// builds its own under its GOMAXPROCS.
func TestTraceDigests(t *testing.T) {
	want := readDigests(t)
	cases := digestCases()
	if len(want) != len(cases) {
		t.Errorf("%s holds %d digests, want %d", digestFile, len(want), len(cases))
	}
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			runtime.GC()
			var got []string
			for _, c := range cases {
				sum := traceDigest(t, c.gen())
				got = append(got, c.name+" "+sum)
				if w, ok := want[c.name]; !ok {
					t.Errorf("%s: no pinned digest", c.name)
				} else if w != sum {
					t.Errorf("%s: digest %s, pinned %s", c.name, sum, w)
				}
			}
			if t.Failed() {
				sort.Strings(got)
				t.Logf("digests of this tree:\n%s", strings.Join(got, "\n"))
			}
		})
	}
}
