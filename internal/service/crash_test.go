package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"lowvcc/internal/circuit"
	"lowvcc/internal/sim"
)

// TestSweepdWorkerHelper is not a test: it is the external worker process
// body for TestWorkerCrashResume, re-executing the test binary the way
// `sweepd -worker -join <addr>` runs in production: the worker loop over
// an HTTP lease source, as Work runs it. It pulls leases until killed;
// LOWVCC_SWEEPD_FAULT="label|trace" wraps the source in an exitSource, so
// the process dies (exit 3) holding that cell's lease when it reaches it.
func TestSweepdWorkerHelper(t *testing.T) {
	if os.Getenv("LOWVCC_SWEEPD_WORKER") != "1" {
		t.Skip("helper process for TestWorkerCrashResume")
	}
	hs, err := newHTTPSource(os.Getenv("LOWVCC_SWEEPD_JOIN"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: %v\n", err)
		os.Exit(2)
	}
	var src CellSource = hs
	if f := os.Getenv("LOWVCC_SWEEPD_FAULT"); f != "" {
		label, trace, ok := strings.Cut(f, "|")
		if !ok {
			fmt.Fprintf(os.Stderr, "helper: bad fault spec %q\n", f)
			os.Exit(2)
		}
		src = &exitSource{CellSource: src, label: label, traceName: trace}
	}
	// Runs until the parent kills the process (clean workers) or the
	// exitSource exits (the victim).
	workLoop(context.Background(), src, WorkerOpts{
		Name:       os.Getenv("LOWVCC_SWEEPD_NAME"),
		Poll:       10 * time.Millisecond,
		JournalDir: os.Getenv("LOWVCC_SWEEPD_SCRATCH"),
	})
}

// spawnWorkerProc re-executes this test binary as an external worker
// process joined to the daemon at base, with a scratch directory the test
// removes. fault, when non-empty, is "label|trace" for a worker that dies
// holding that cell's lease. The process is killed at test cleanup if
// still running.
func spawnWorkerProc(t *testing.T, base, name, fault string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestSweepdWorkerHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"LOWVCC_SWEEPD_WORKER=1",
		"LOWVCC_SWEEPD_JOIN="+base,
		"LOWVCC_SWEEPD_NAME="+name,
		"LOWVCC_SWEEPD_FAULT="+fault,
		"LOWVCC_SWEEPD_SCRATCH="+t.TempDir(),
	)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting worker process %s: %v", name, err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd, &out
}

// TestWorkerCrashResume is the process-level resilience proof: an external
// worker process dies holding a lease (an injected os.Exit just before it
// reports the cell, same effect as kill -9), its lease expires and the cell is reassigned, and a rescue
// fleet — sized 1, 2, and 4 across subtests — completes the sweep with no
// lost or double-counted cells and a journal byte-identical to an
// uninterrupted local run.
func TestWorkerCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary as worker processes")
	}
	spec := testSpec()
	ref := localReferenceJournal(t, spec)
	// The victim cell sits mid-grid (second mode, first level, first
	// trace): the victim completes real work first, then dies.
	victimLabel := sim.SweepLabel(circuit.Millivolts(500), circuit.ModeIRAW)
	victimTrace := spec.Traces()[0].Name

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("rescuers=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			_, base := newTestDaemon(t, ServerOpts{
				SchedulerOpts: SchedulerOpts{
					JournalDir: dir,
					LeaseTTL:   300 * time.Millisecond,
				},
				Workers: -1,
			})
			cl, err := NewClient(base)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()

			// The victim works the sweep alone so it deterministically
			// reaches the faulted cell and dies holding its lease.
			victim, vout := spawnWorkerProc(t, base, "victim", victimLabel+"|"+victimTrace)
			id, err := cl.Submit(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := victim.Wait(); err == nil {
				t.Fatalf("victim exited clean, want fault exit 3\n%s", vout)
			}
			if code := victim.ProcessState.ExitCode(); code != 3 {
				t.Fatalf("victim exit code = %d, want 3 (exitSource)\n%s", code, vout)
			}
			st, err := cl.Status(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if st.Done == 0 || st.Terminal() {
				t.Fatalf("victim died too early/late: %+v (want partial progress)", st)
			}

			// Rescue fleet: n clean workers finish what the victim left,
			// including the reclaimed in-flight cell.
			for i := 0; i < n; i++ {
				spawnWorkerProc(t, base, fmt.Sprintf("rescue-%d", i), "")
			}

			seen := make(map[int]int)
			term, err := cl.Events(ctx, id, func(ev CellEvent) error {
				if !ev.Terminal && ev.Err == "" {
					seen[ev.Index]++
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if term.State != "done" {
				t.Fatalf("sweep ended %q after rescue, want done", term.State)
			}
			total := cellCount(spec)
			if len(seen) != total {
				t.Fatalf("completed %d distinct cells, want %d (lost cells)", len(seen), total)
			}
			for idx, c := range seen {
				if c != 1 {
					t.Fatalf("cell %d counted %d times (double count across crash)", idx, c)
				}
			}
			assertJournalsEqual(t, ref, dir, fmt.Sprintf("crash resume, %d rescuers", n))
		})
	}
}
