// Command tracegen writes synthetic traces to disk in the lowvcc binary
// trace format, for use with irawsim -trace or external tooling.
//
//	tracegen -profile specint -insts 1000000 -seed 7 -o specint.trc
//	tracegen -suite -insts 100000 -seeds 2 -dir traces/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

func main() {
	profile := flag.String("profile", "specint", "workload profile")
	insts := flag.Int("insts", 1000000, "instructions per trace")
	seed := flag.Uint64("seed", 1, "generation seed")
	out := flag.String("o", "", "output file (default <profile>-<seed>.trc)")
	suite := flag.Bool("suite", false, "generate the whole standard suite")
	seeds := flag.Int("seeds", 1, "traces per class (with -suite)")
	dir := flag.String("dir", ".", "output directory (with -suite)")
	flag.Parse()

	if err := run(*profile, *insts, *seed, *out, *suite, *seeds, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(profName string, insts int, seed uint64, out string, suite bool, seeds int, dir string) error {
	if suite {
		for _, tr := range workload.Suite(insts, seeds) {
			path := filepath.Join(dir, tr.Name+".trc")
			if err := writeTrace(path, tr); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d instructions)\n", path, tr.Len())
		}
		return nil
	}
	prof, err := workload.ProfileByName(profName)
	if err != nil {
		return err
	}
	tr := workload.Generate(prof, insts, seed)
	if out == "" {
		out = fmt.Sprintf("%s-%d.trc", profName, seed)
	}
	if err := writeTrace(out, tr); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d instructions)\n", out, tr.Len())
	return nil
}

func writeTrace(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Write(f, tr); err != nil {
		return err
	}
	return f.Close()
}
