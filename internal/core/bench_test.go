package core

import (
	"testing"

	"lowvcc/internal/circuit"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

// BenchmarkEngineSuite times the issue engine on the cell shape of the
// benchmark module's engine-suite workload: the seven paper profiles, one
// 50k-instruction trace each, at six operating points, one reused core per
// point. A cell is Reset, a warm Run and a measured Run; one op is all 42
// cells. insts/s counts each cell's trace once, as the benchmark does.
//
//	go test -run '^$' -bench EngineSuite -count 10 ./internal/core
func BenchmarkEngineSuite(b *testing.B) {
	cfgs := []Config{
		DefaultConfig(500, circuit.ModeBaseline),
		DefaultConfig(500, circuit.ModeIRAW),
		DefaultConfig(400, circuit.ModeBaseline),
		DefaultConfig(400, circuit.ModeIRAW),
		DefaultConfig(575, circuit.ModeIRAW),
		DefaultConfigWidth(500, circuit.ModeIRAW, 4),
	}
	var traces []*trace.Trace
	insts := 0
	for i, p := range workload.Profiles() {
		tr := workload.Generate(p, 50_000, 1000+uint64(i))
		traces = append(traces, tr)
		insts += len(tr.Insts)
	}
	cores := make([]*Core, len(cfgs))
	for i, cfg := range cfgs {
		cores[i] = MustNew(cfg)
	}
	ops := 0
	for b.Loop() {
		ops++
		for _, c := range cores {
			for _, tr := range traces {
				if err := c.Reset(); err != nil {
					b.Fatal(err)
				}
				if _, err := c.Run(tr); err != nil {
					b.Fatal(err)
				}
				if _, err := c.Run(tr); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(ops*len(cores)*insts)/b.Elapsed().Seconds(), "insts/s")
}
