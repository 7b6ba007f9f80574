// Command sweepd is the sweep daemon: it accepts voltage-sweep
// specifications over HTTP, decomposes them into journal-keyed cells, and
// executes the cells under time-bounded leases — in-process, on external
// worker processes, or both. Workers can crash, hang, or be kill -9'ed and
// the sweep still completes, bit-identical to a local run, because every
// cell is idempotent by content address and every result enters the
// daemon's journal only through its content check.
//
// Start a daemon (journal directory is required; it also holds the
// exclusive-writer LOCK, and the in-process workers' checkpoint store
// lives under its local/ subdirectory):
//
//	sweepd -addr 127.0.0.1:7077 -journal /tmp/jnl
//
// Join external workers — any number, any time, from any machine. A
// worker seals each result in memory and uploads it in its Complete call
// (the daemon verifies the bytes' content address before admitting them),
// so no filesystem is shared; an idle worker waits on the daemon for work
// for up to -poll per lease request:
//
//	sweepd -worker -join 127.0.0.1:7077
//
// Submit a sweep and watch it with curl:
//
//	curl -s -d '{"insts_per_trace":40000,"seeds_per_profile":1,"modes":["baseline","iraw"]}' \
//	    http://127.0.0.1:7077/api/v1/sweeps
//	curl -s http://127.0.0.1:7077/api/v1/sweeps/sweep-1
//	curl -sN http://127.0.0.1:7077/api/v1/sweeps/sweep-1/events
//
// Or let the CLIs drive it: `vccsweep -server 127.0.0.1:7077` renders the
// usual sweep table from the daemon's results, and
// `figures -fig 11b -server 127.0.0.1:7077` does the same for Figure
// 11(b).
//
// SIGTERM or SIGINT drains gracefully: no new sweeps or leases, in-flight
// cells finish and journal, the journal is verified, and the process exits
// 0. A second signal forces exit 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lowvcc/internal/service"
)

func main() {
	var opts service.ServerOpts
	w := &opts.Worker
	addr := flag.String("addr", "127.0.0.1:7077", "listen address (host:port; port 0 picks a free one)")
	flag.StringVar(&opts.JournalDir, "journal", "", "daemon journal directory (required); in-process workers upload like external ones and keep their checkpoint store under <dir>/local")
	flag.IntVar(&opts.Workers, "workers", 0, "in-process simulation workers (0 = GOMAXPROCS, -1 = none: external workers only)")
	flag.DurationVar(&opts.LeaseTTL, "lease-ttl", 30*time.Second, "cell lease TTL; a dead worker's cells requeue within ~1.25x this")
	flag.IntVar(&opts.MaxQueuedCells, "max-queue", 4096, "max pending+leased cells before submissions get 429")
	flag.IntVar(&opts.MaxAttempts, "max-attempts", 5, "attempts per cell (reclaims included) before it is declared failed")
	flag.DurationVar(&opts.SweepDeadline, "sweep-deadline", 0, "per-sweep wall-clock budget (0 = none)")
	flag.DurationVar(&w.CellTimeout, "cell-timeout", 0, "per-cell wall-clock budget on this process's workers (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "graceful-shutdown budget for in-flight cells")
	flag.BoolVar(&opts.JournalSync, "fsync", true, "fsync journal entries (power-loss durability)")
	flag.IntVar(&w.Retries, "retries", 1, "window-level transient-failure retries per cell execution")
	flag.DurationVar(&w.RetryBackoff, "retry-backoff", time.Second, "backoff before the first retry (doubles, jittered)")
	flag.Int64Var(&opts.JournalBudget, "journal-budget", 0, "disk budget in bytes for the daemon's journal segments (daemon mode); past it the journal compacts to its most recently used entries (0 = unbounded)")
	flag.Int64Var(&w.CkptBudget, "ckpt-budget", 0, "checkpoint-store disk budget in bytes, worker mode (0 = unbounded)")
	flag.Float64Var(&opts.SubmitRate, "submit-rate", 0, "per-client sweep submissions per second (0 = unlimited)")
	flag.IntVar(&opts.SubmitBurst, "submit-burst", 2, "per-client submission burst on top of -submit-rate")
	flag.IntVar(&opts.MaxCellsPerSweep, "max-cells-per-sweep", 0, "reject any single sweep expanding past this many cells (0 = unlimited)")

	workerMode := flag.Bool("worker", false, "run as an external worker instead of a daemon")
	join := flag.String("join", "", "daemon address to pull leases from (worker mode)")
	flag.StringVar(&w.Name, "name", "", "worker name in leases and events (worker mode; default pid-derived)")
	flag.DurationVar(&w.Poll, "poll", 250*time.Millisecond, "how long an idle worker waits for work per lease request (worker mode)")
	flag.StringVar(&w.JournalDir, "worker-journal", "", "worker's scratch directory, which holds its checkpoint store (worker mode; default throwaway temp dir)")
	flag.Parse()

	var err error
	if *workerMode {
		err = runWorker(*join, opts.Worker)
	} else {
		// The worker-mode flags leave the in-process slots at their
		// defaults (RunWorkers names them and roots their store).
		w.Name, w.Poll, w.JournalDir, w.CkptBudget = "", 0, "", 0
		err = runDaemon(*addr, *drainTimeout, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

func runDaemon(addr string, drainTimeout time.Duration, opts service.ServerOpts) error {
	if opts.JournalDir == "" {
		return fmt.Errorf("-journal is required (it holds results and the writer lock)")
	}
	srv, warn, err := service.NewServer(opts)
	if err != nil {
		return err
	}
	if warn != "" {
		fmt.Fprintln(os.Stderr, "sweepd:", warn)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Scheduler().Close()
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	// The parseable serving line: scripts read the actual port from it
	// when -addr ends in :0.
	fmt.Printf("sweepd: serving on %s\n", ln.Addr())
	os.Stdout.Sync()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		srv.Scheduler().Close()
		return err
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "sweepd: %v: draining (in-flight cells finish; new work rejected)\n", sig)
	}

	// Second signal: forced exit.
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "sweepd: second signal, forcing exit")
		os.Exit(1)
	}()

	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := srv.Drain(dctx)

	// Let in-flight HTTP responses (e.g. event streams delivering their
	// terminal events) finish before the listener dies.
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	httpSrv.Shutdown(hctx)

	n, verr := srv.Scheduler().Journal().Verify()
	switch {
	case verr != nil:
		return fmt.Errorf("journal verification after drain: %w", verr)
	case drainErr != nil:
		return fmt.Errorf("drain: %w (journal consistent: %d entries)", drainErr, n)
	}
	fmt.Fprintf(os.Stderr, "sweepd: drained; journal verified (%d entries)\n", n)
	return nil
}

func runWorker(join string, opts service.WorkerOpts) error {
	if join == "" {
		return fmt.Errorf("-worker requires -join <daemon address>")
	}
	if opts.Name == "" {
		opts.Name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	fmt.Fprintf(os.Stderr, "sweepd: worker %s pulling from %s\n", opts.Name, join)
	err := service.Work(ctx, join, opts)
	if err == context.Canceled {
		return nil // clean signal-driven exit
	}
	return err
}
