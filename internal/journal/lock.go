package journal

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// lockName is the exclusive-writer lock file inside a journal directory.
const lockName = "LOCK"

// Lock is an exclusive-writer claim on a journal directory, held by one
// long-running process (the sweep daemon) so two daemons can never
// interleave scheduling decisions over one journal. The lock protects
// daemon mutual exclusion, not entry integrity — entries themselves stay
// safe under concurrent writers by content addressing and because each
// handle appends only to record files it created, which is what lets
// other processes share the directory without holding the lock.
type Lock struct {
	path string
	pid  int
}

// LockHeldError reports a journal directory already locked by a live
// process.
type LockHeldError struct {
	Dir string
	Pid int
}

func (e *LockHeldError) Error() string {
	return fmt.Sprintf("journal: %s is locked by running pid %d", e.Dir, e.Pid)
}

// AcquireLock claims the exclusive-writer lock on dir, creating the
// directory if needed. The lock is a LOCK file recording the owner's pid,
// hostname and process start time; liveness is checked by signaling the
// pid AND comparing the start time (when /proc exposes one), so a lock
// left behind by a crashed or kill -9'ed daemon is reclaimed even when
// the kernel has recycled its pid for an unrelated process (the returned
// warning is non-empty when a reclaim happened — callers should surface
// it). A lock held by a live process returns a *LockHeldError.
func AcquireLock(dir string) (*Lock, string, error) {
	if dir == "" {
		return nil, "", fmt.Errorf("journal: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(dir, lockName)
	warning := ""
	// O_EXCL create is the atomic claim; everything else is deciding
	// whether an existing file may be swept aside. Bounded retries: each
	// loop either claims, returns "held", or removes one stale file.
	for attempt := 0; attempt < 8; attempt++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			host, _ := os.Hostname()
			pid := os.Getpid()
			if _, werr := fmt.Fprintf(f, "%d %s %s\n", pid, host, procStartTime(pid)); werr != nil {
				f.Close()
				os.Remove(path)
				return nil, "", fmt.Errorf("journal: writing lock: %w", werr)
			}
			f.Sync()
			if cerr := f.Close(); cerr != nil {
				os.Remove(path)
				return nil, "", fmt.Errorf("journal: writing lock: %w", cerr)
			}
			return &Lock{path: path, pid: pid}, warning, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return nil, "", fmt.Errorf("journal: acquiring lock: %w", err)
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			// Raced with a concurrent release or reclaim; try again.
			continue
		}
		pid, start := parseLock(data)
		if pid > 0 && ownerAlive(pid, start) {
			return nil, "", &LockHeldError{Dir: dir, Pid: pid}
		}
		// Stale: the recorded pid is dead, was recycled by an unrelated
		// process (start-time mismatch), or the file is garbage. Remove
		// and race for the claim again.
		warning = fmt.Sprintf("journal: reclaimed stale lock %s (held by dead pid %d)", path, pid)
		os.Remove(path)
	}
	return nil, "", fmt.Errorf("journal: could not acquire %s after repeated stale-lock reclaims", path)
}

// Release drops the lock. It refuses to remove a LOCK file that no longer
// records this process (a stale-reclaim race took ownership): losing that
// race means some other daemon now legitimately holds the directory.
func (l *Lock) Release() error {
	data, err := os.ReadFile(l.path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("journal: releasing lock: %w", err)
	}
	if pid, _ := parseLock(data); pid != l.pid {
		return fmt.Errorf("journal: lock %s now held by pid %d, not releasing", l.path, pid)
	}
	if err := os.Remove(l.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("journal: releasing lock: %w", err)
	}
	return nil
}

// Path returns the lock file's path.
func (l *Lock) Path() string { return l.path }

// parseLock extracts the owner pid and recorded process start time from a
// LOCK file. Pid 0 means garbage (treated as stale); an empty start time
// means a pre-start-time lock format (pid liveness alone decides).
func parseLock(data []byte) (pid int, start string) {
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0, ""
	}
	pid, err := strconv.Atoi(fields[0])
	if err != nil || pid <= 0 {
		return 0, ""
	}
	if len(fields) >= 3 {
		start = fields[2]
	}
	return pid, start
}

// ownerAlive reports whether the recorded lock owner still runs: the pid
// must name a live process AND, when both the lock and /proc expose a
// start time, the start times must match. A recycled pid — same number,
// different process since boot — has a different start time and counts as
// dead, so a fresh daemon is never wedged by a number collision.
func ownerAlive(pid int, start string) bool {
	if !pidAlive(pid) {
		return false
	}
	if start == "" {
		return true // old lock format: pid liveness is all we recorded
	}
	cur := procStartTime(pid)
	if cur == "" {
		return true // /proc unreadable (foreign pid, non-Linux): stay safe
	}
	return cur == start
}

// pidAlive reports whether pid names a live process: signal 0 probes
// existence without delivering anything. EPERM means alive-but-foreign,
// which still counts as held.
func pidAlive(pid int) bool {
	err := syscall.Kill(pid, 0)
	return err == nil || errors.Is(err, syscall.EPERM)
}

// procStartTime returns the kernel's start-time tick for pid (field 22 of
// /proc/<pid>/stat), or "" where that is unreadable. The tick counts
// monotonically since boot, so (pid, starttime) identifies one process
// incarnation — exactly the token AcquireLock needs to survive pid reuse.
func procStartTime(pid int) string {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ""
	}
	// The comm field (2) is parenthesized and may itself contain spaces
	// or parens; everything after the LAST ')' is space-separated, with
	// starttime at offset 19 (field 22 overall).
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return ""
	}
	rest := strings.Fields(s[i+1:])
	if len(rest) < 20 {
		return ""
	}
	return rest[19]
}
