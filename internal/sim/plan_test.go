package sim

import (
	"fmt"
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/core"
	"lowvcc/internal/journal"
	"lowvcc/internal/rng"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

// planTraces are the traces FuzzPlan's specs draw from: identity, not
// content, separates groups, so tiny traces suffice.
var planTraces = func() []*trace.Trace {
	var out []*trace.Trace
	for seed := uint64(1); seed <= 3; seed++ {
		out = append(out, workload.Generate(workload.SpecInt(), 64, seed))
	}
	return out
}()

// randomPlanSpecs builds up to ten points over mode x Vcc x ForcedN x
// width, each over a random subset of planTraces in random order. The
// axes are narrow enough that most points share a group with another.
func randomPlanSpecs(src *rng.Source) []PointSpec {
	modes := []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW, circuit.ModeFaultyBits, circuit.ModeExtraBypass}
	levels := []circuit.Millivolts{700, 600, 500}
	specs := make([]PointSpec, 1+src.Intn(10))
	for p := range specs {
		cfg := core.DefaultConfigWidth(levels[src.Intn(len(levels))], modes[src.Intn(len(modes))], 1+src.Intn(2))
		if src.Bool(0.3) {
			cfg.ForcedN = src.Intn(4) // 0 keeps the circuit's own N
		}
		if src.Bool(0.1) {
			cfg.IQ.Size = 3 // not a power of two: the config does not validate
		}
		specs[p] = PointSpec{Label: fmt.Sprintf("p%d", p), Cfg: cfg}
		for _, tr := range planTraces {
			if src.Bool(0.7) {
				specs[p].Traces = append(specs[p].Traces, tr)
			}
		}
		for i := len(specs[p].Traces) - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			specs[p].Traces[i], specs[p].Traces[j] = specs[p].Traces[j], specs[p].Traces[i]
		}
	}
	return specs
}

// FuzzPlan checks Keyer.Plan against its definition, computed by brute
// force: a cell's From is the lowest-index journaled cell of its Group,
// else the lowest-index cell of its Group, and -1 when that is the cell
// itself, when the cell is journaled, or when it joins no group (its
// config does not validate).
func FuzzPlan(f *testing.F) {
	for seed := uint64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		src := rng.New(seed)
		specs := randomPlanSpecs(src)
		type ref struct {
			g         Group
			plan      circuit.ClockPlan
			journaled bool
		}
		var cells []ref
		var jnl *journal.Journal
		if seed%4 != 0 {
			var err error
			if jnl, err = journal.Open(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			defer jnl.Close()
		}
		// Journal a random subset of cells. Points of equal config share
		// keys, so a cell counts as journaled when any cell put its key.
		keys := (&Runner{}).NewKeyer()
		put := make(map[string]bool)
		var cellKeys []string
		for p := range specs {
			for _, tr := range specs[p].Traces {
				g, plan := keys.Group(specs[p].Cfg, tr)
				cells = append(cells, ref{g: g, plan: plan})
				key, err := keys.CellKey(specs[p].Cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				cellKeys = append(cellKeys, key)
				if jnl != nil && src.Bool(0.3) {
					if err := jnl.Put(&journal.Entry{Key: key, Windows: 1, Result: &core.Result{TraceName: tr.Name}}); err != nil {
						t.Fatal(err)
					}
					put[key] = true
				}
			}
		}
		for i := range cells {
			cells[i].journaled = put[cellKeys[i]]
		}

		got, err := (&Runner{}).NewKeyer().Plan(specs, jnl)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(cells) {
			t.Fatalf("%d planned cells, want %d", len(got), len(cells))
		}
		i := 0
		for p := range specs {
			for ti, tr := range specs[p].Traces {
				pc, c := got[i], cells[i]
				want := -1
				if c.g.Valid() && !c.journaled {
					lead := -1
					for j := range cells {
						if cells[j].g == c.g && cells[j].journaled {
							lead = j
							break
						}
					}
					for j := 0; lead < 0 && j < len(cells); j++ {
						if cells[j].g == c.g {
							lead = j
						}
					}
					if lead != i {
						want = lead
					}
				}
				if pc.From != want {
					t.Fatalf("cell %d (%s %s): From %d, want %d", i, specs[p].Label, tr.Name, pc.From, want)
				}
				if pc.Point != p || pc.Trace != ti || pc.Plan != c.plan || (pc.Entry != nil) != c.journaled {
					t.Fatalf("cell %d: planned (point %d, trace %d, journaled %v), want (%d, %d, %v), or its clock plan differs",
						i, pc.Point, pc.Trace, pc.Entry != nil, p, ti, c.journaled)
				}
				wantKey := ""
				if jnl != nil {
					wantKey = cellKeys[i]
				}
				if pc.Key != wantKey {
					t.Fatalf("cell %d: key %q, want %q", i, pc.Key, wantKey)
				}
				i++
			}
		}
	})
}
