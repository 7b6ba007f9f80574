package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// RegisterFlags binds the run flags every simulating command shares
// directly onto r's fields, so parsing fs configures r. Each flag's
// default is the field's value at registration: a zero Runner parsed with
// no arguments stays a zero Runner.
//
//	-workers -width -window -warm -ckpt -timeout -progress -journal
//	-journal-budget -ckpt-budget -retries -retry-backoff -allow-partial
func (r *Runner) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&r.Workers, "workers", r.Workers, "simulation worker goroutines (0 = GOMAXPROCS)")
	fs.IntVar(&r.Width, "width", r.Width, "fetch/issue width of the simulated core, 1..4 (0 = the modelled default, 2)")
	fs.IntVar(&r.WindowInsts, "window", r.WindowInsts, "shard traces into sample windows of this many instructions (0 = auto for long traces, <0 = off)")
	fs.IntVar(&r.WarmInsts, "warm", r.WarmInsts, "functional warm-up prefix per sample window (0 or <0 = the full prefix)")
	fs.Func("ckpt", "warm-state checkpoint store: auto (default; journal dir or in-memory), off, or a `directory`", r.setCheckpoints)
	fs.DurationVar(&r.PointTimeout, "timeout", r.PointTimeout, "per-point wall-clock budget (0 = none)")
	prog := filepath.Base(fs.Name())
	fs.BoolFunc("progress", "print per-cell progress lines to stderr as grid cells complete", func(s string) error {
		on, err := strconv.ParseBool(s)
		if err != nil {
			return err
		}
		r.Progress = nil
		if on {
			r.Progress = progressPrinter(prog, time.Now())
		}
		return nil
	})
	fs.StringVar(&r.JournalDir, "journal", r.JournalDir, "journal completed cells to this directory and replay them on restart")
	fs.Int64Var(&r.JournalBudget, "journal-budget", r.JournalBudget, "journal disk budget in bytes; least-recently-used entries evict past it (0 = unbounded)")
	fs.Int64Var(&r.CkptBudget, "ckpt-budget", r.CkptBudget, "checkpoint-store disk budget in bytes (0 = unbounded)")
	fs.IntVar(&r.Retries, "retries", r.Retries, "retry transiently-failed cells (timeouts) this many times")
	fs.DurationVar(&r.RetryBackoff, "retry-backoff", r.RetryBackoff, "backoff before the first retry (doubles per attempt)")
	fs.BoolVar(&r.AllowPartial, "allow-partial", r.AllowPartial, "keep going past failed cells; streaming tables mark them FAIL(reason)")
}

// setCheckpoints applies a -ckpt value: "" or "auto" keeps the default
// store resolution (JournalDir/ckpt when journaling is on, else a shared
// in-memory store), "off" selects the live-replay reference path, and any
// other value roots an on-disk store at that directory.
func (r *Runner) setCheckpoints(spec string) error {
	switch spec {
	case "off":
		r.DisableCheckpoints = true
	case "", "auto":
		r.DisableCheckpoints, r.CkptDir = false, ""
	default:
		r.DisableCheckpoints, r.CkptDir = false, spec
	}
	return nil
}

// progressPrinter returns the -progress callback: one stderr line per
// completed or isolated-failed cell, prefixed with the program name and
// the seconds since start, and ending in " [daemon]" for a cell the sweep
// daemon ran (whose window count is unknown here). The terminal error
// update prints nothing — the error surfaces through the experiment's
// return value.
func progressPrinter(prog string, start time.Time) func(PointUpdate) {
	return func(u PointUpdate) {
		where, windows := "", fmt.Sprintf(" (%d window(s))", u.Windows)
		if u.Daemon {
			where, windows = " [daemon]", ""
		}
		switch {
		case u.Err != nil && u.Point >= 0:
			fmt.Fprintf(os.Stderr, "%s: [%6.2fs] %3d/%d %s %s FAILED: %v%s\n",
				prog, time.Since(start).Seconds(), u.Done, u.Total, u.Label, u.TraceName, u.Err, where)
		case u.Err != nil:
		default:
			tag := ""
			switch {
			case u.Replayed:
				tag = " [journal]"
			case u.Derived != "":
				tag = " [derived from " + u.Derived + "]"
			}
			fmt.Fprintf(os.Stderr, "%s: [%6.2fs] %3d/%d %s %s%s%s%s\n",
				prog, time.Since(start).Seconds(), u.Done, u.Total, u.Label, u.TraceName, windows, tag, where)
		}
	}
}
