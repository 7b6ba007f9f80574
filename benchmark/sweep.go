package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/ckpt"
	"lowvcc/internal/core"
	"lowvcc/internal/journal"
	"lowvcc/internal/sim"
	"lowvcc/internal/trace"
	"lowvcc/internal/workload"
)

// sweepBench runs one voltage sweep per round over a long trace through
// sim.Runner.Stream: the path vccsweep and figures take. Each cell shards
// into full-history windows warmed from a checkpoint store; the first cell
// of a sweep captures the snapshots and the other five restore them.
type sweepBench struct {
	o       *options
	workDir string
	n       int
	// window is Runner.WindowInsts: 0 selects automatic windowing, which
	// shards a 300k-instruction trace into 8 windows. The quick size sets
	// it explicitly because its trace is below the automatic threshold.
	window int

	tr    *trace.Trace
	specs []sim.PointSpec

	windows []int // each cell's shard count, from the first sweep
	ckpt    ckpt.Stats
	diskMiB []float64
	nsweeps int
}

func newSweepBench(o *options, workDir string) *sweepBench {
	s := &sweepBench{o: o, workDir: workDir, n: 300_000}
	if o.quick {
		s.n, s.window = 40_000, 5_000
	}
	return s
}

func (s *sweepBench) setup() error {
	s.tr = workload.LongTrace(s.n, s.o.seed)
	s.specs = nil
	for _, mode := range []circuit.Mode{circuit.ModeBaseline, circuit.ModeIRAW} {
		for _, v := range []circuit.Millivolts{600, 500, 400} {
			s.specs = append(s.specs, sim.PointSpec{
				Label:  sim.SweepLabel(v, mode),
				Cfg:    core.DefaultConfig(v, mode),
				Traces: []*trace.Trace{s.tr},
			})
		}
	}
	return nil
}

func (s *sweepBench) runner() *sim.Runner {
	return (&sim.Runner{Workers: runtime.GOMAXPROCS(0)}).WithWindow(s.window, 0)
}

// stream runs the sweep and returns each cell's result and its latency
// from the Stream call, with one span per cell.
func stream(ctx context.Context, r *sim.Runner, specs []sim.PointSpec, rec *recorder, name string) ([]*core.Result, []int, group, error) {
	results := make([]*core.Result, len(specs))
	windows := make([]int, len(specs))
	lat := make([]float64, len(specs))
	var firstErr error
	sp := rec.start("sim.stream", 0, name)
	g := group{start: time.Now()}
	t0 := g.start
	for u := range r.Stream(ctx, specs) {
		if u.Err != nil {
			if firstErr == nil {
				firstErr = u.Err
			}
			continue
		}
		now := time.Now()
		rec.add("sim.cell", sp, u.Label, t0, now)
		results[u.Point] = u.Result
		windows[u.Point] = u.Windows
		lat[u.Point] = ms(now.Sub(t0))
		g.insts += float64(len(specs[u.Point].Traces[u.Trace].Insts))
	}
	g.wall = time.Since(t0)
	g.lat = lat
	rec.end(sp)
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return results, windows, g, firstErr
}

func (s *sweepBench) round(ctx context.Context, idx int, rec *recorder) (roundOut, error) {
	dir := filepath.Join(s.workDir, fmt.Sprintf("sweep-%d", idx))
	defer os.RemoveAll(dir)
	st, err := ckpt.Open(filepath.Join(dir, "ckpt"))
	if err != nil {
		return roundOut{}, err
	}
	r := s.runner().WithCheckpointStore(st).WithJournal(filepath.Join(dir, "journal"))
	results, windows, g, err := stream(ctx, r, s.specs, rec, fmt.Sprintf("sweep-%d", idx))
	if err != nil {
		return roundOut{results: results}, err
	}
	if s.windows == nil {
		s.windows = windows
	}
	cs := st.Stats()
	s.ckpt.Restores += cs.Restores
	s.ckpt.Replays += cs.Replays
	s.ckpt.Captures += cs.Captures
	s.nsweeps++
	disk, err := dirBytes(filepath.Join(dir, "ckpt"))
	if err != nil {
		return roundOut{}, err
	}
	s.diskMiB = append(s.diskMiB, float64(disk)/(1<<20))
	return roundOut{groups: []group{g}, results: results}, nil
}

// reference reruns the sweep with checkpoints off: every window replays
// its whole warm prefix live.
func (s *sweepBench) reference(ctx context.Context, _ bool) ([]*core.Result, int, error) {
	res, _, _, err := stream(ctx, s.runner().WithDisableCheckpoints(true), s.specs, nil, "reference")
	return res, 0, err
}

func (s *sweepBench) layerMetrics(ctx context.Context, first []*core.Result, rec *recorder, m map[string]float64) error {
	if n := s.ckpt.Restores + s.ckpt.Replays; n > 0 {
		m["ckpt.restore_frac"] = float64(s.ckpt.Restores) / float64(n)
	}
	m["ckpt.captures_per_sweep"] = float64(s.ckpt.Captures) / float64(s.nsweeps)
	m["ckpt.disk_mb"] = median(s.diskMiB)
	if rec == nil {
		return nil
	}
	if err := s.replay(ctx, first, rec); err != nil {
		return err
	}
	m["trace.hash_ms"] = median(rec.durationsMS("trace.hash"))
	m["trace.shard_ms"] = median(rec.durationsMS("trace.shard"))
	m["ckpt.warmto_ms_p50"] = median(rec.durationsMS("ckpt.warmto"))
	m["ckpt.warmto_ms_p90"] = quantile(rec.durationsMS("ckpt.warmto"), 0.9)
	m["core.runwarmed_ms_p50"] = median(rec.durationsMS("core.runwarmed"))
	m["core.merge_us"] = 1000 * median(rec.durationsMS("core.merge"))
	m["journal.put_ms_p50"] = median(rec.durationsMS("journal.put"))
	m["journal.get_ms_p50"] = median(rec.durationsMS("journal.get"))
	return nil
}

// replay recomputes the first sweep's cells one call at a time through the
// layers Runner.Stream composes: trace.Write into sha256, trace.Shard,
// ckpt.Store.WarmTo, core.Core.RunWarmed, core.MergeWindowResults,
// journal.Put and, as a resumed sweep would, journal.Get. Each call gets a
// span; every replayed result must equal the Stream's bit for bit.
func (s *sweepBench) replay(ctx context.Context, want []*core.Result, rec *recorder) error {
	dir := filepath.Join(s.workDir, "replay")
	defer os.RemoveAll(dir)
	st, err := ckpt.Open(filepath.Join(dir, "ckpt"))
	if err != nil {
		return err
	}
	jnl, err := journal.Open(filepath.Join(dir, "journal"))
	if err != nil {
		return err
	}
	keyRunner := s.runner()

	sp := rec.start("trace.hash", 0, s.tr.Name)
	h := sha256.New()
	err = trace.Write(h, s.tr)
	rec.end(sp)
	if err != nil {
		return err
	}
	traceHash := hex.EncodeToString(h.Sum(nil))

	for i, spec := range s.specs {
		if err := ctx.Err(); err != nil {
			return err
		}
		cfg, label := spec.Cfg, spec.Label
		cell := rec.start("cell", 0, label)
		key, err := keyRunner.CellKey(cfg, s.tr)
		if err != nil {
			return err
		}
		// Automatic windowing cuts the trace into the number of windows the
		// Stream reported for this cell.
		win := s.window
		if win == 0 {
			n := len(s.tr.Insts)
			win = (n + s.windows[i] - 1) / s.windows[i]
		}
		sp := rec.start("trace.shard", cell, label)
		windows := trace.Shard(s.tr, win, -1)
		rec.end(sp)
		warmKey := ckpt.WarmConfigKey(cfg)
		parts := make([]*core.Result, len(windows))
		for w, wd := range windows {
			c, err := core.New(cfg)
			if err != nil {
				return err
			}
			if wd.Warm > 0 {
				sp := rec.start("ckpt.warmto", cell, label)
				err := st.WarmTo(c, traceHash, warmKey, win, wd.Trace, wd.Warm)
				rec.end(sp)
				if err != nil {
					return fmt.Errorf("%s window %d: %w", label, w, err)
				}
			}
			sp := rec.start("core.runwarmed", cell, label)
			parts[w], err = c.RunWarmed(wd.Trace, wd.Warm)
			rec.end(sp)
			if err != nil {
				return fmt.Errorf("%s window %d: %w", label, w, err)
			}
		}
		sp = rec.start("core.merge", cell, label)
		res := core.MergeWindowResults(s.tr.Name, parts)
		rec.end(sp)
		sp = rec.start("journal.put", cell, label)
		err = jnl.Put(&journal.Entry{Key: key, Windows: len(windows), Result: res})
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.start("journal.get", cell, label)
		e, ok := jnl.Get(key)
		rec.end(sp)
		rec.end(cell)
		switch {
		case !ok:
			return fmt.Errorf("%s: journal lost the entry just written", label)
		case *res != *want[i]:
			return fmt.Errorf("%s: per-layer replay differs from Runner.Stream", label)
		case *e.Result != *res:
			return fmt.Errorf("%s: journal round trip changed the result", label)
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
