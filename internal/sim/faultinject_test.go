package sim

// Fault injection for the resilience tests. A FaultPlan set as a Runner's
// injector deterministically injects failures at the two places the
// resilience layer must defend: window execution (panics, permanent and
// transient errors, process death) and journal writes (torn entries).
// Rules match by cell identity — spec label and trace name — never by
// timing, so a plan injects the same faults for any worker count or
// schedule. Only simulated cells run windows and write their own entries,
// so a rule that should fire on a deduplicated group targets its leader.

import (
	"fmt"
	"os"
	"sync"
)

// FaultKind selects what an injected fault does.
type FaultKind uint8

const (
	// FaultPanic panics inside the window attempt, exercising the
	// recover() isolation path exactly like a real engine bug would.
	FaultPanic FaultKind = iota + 1
	// FaultError fails the window with a permanent (non-retryable) error.
	FaultError
	// FaultTransient fails the window with a transient error, which the
	// runner's retry policy may retry.
	FaultTransient
	// FaultTruncateJournal tears the cell's journal entry mid-write
	// (journal.PutTruncated), as a crash during the write would.
	FaultTruncateJournal
	// FaultExit terminates the process with status 3: the process-level
	// crash for kill -9 resume tests, fired only in a child process.
	FaultExit
)

// FaultRule matches cells and describes the fault to inject.
type FaultRule struct {
	// Label and TraceName select cells ("" matches any).
	Label     string
	TraceName string

	Kind FaultKind

	// Times bounds how often the rule fires (0 = unlimited). Retries of
	// one window re-match the plan, so Times=1 on a FaultTransient rule
	// means "fail the first attempt, let the retry through".
	Times int
}

// FaultPlan is a deterministic set of fault rules, safe for concurrent
// use by the runner's workers. It implements the runner's injector.
type FaultPlan struct {
	mu    sync.Mutex
	rules []FaultRule
	fired []int
}

// NewFaultPlan builds a plan from rules.
func NewFaultPlan(rules ...FaultRule) *FaultPlan {
	return &FaultPlan{rules: rules, fired: make([]int, len(rules))}
}

// take returns the kind of the first live rule matching (label,
// traceName) — among the FaultTruncateJournal rules when tear is set, the
// others otherwise — consuming one firing from its budget, or 0 when none
// matches.
func (p *FaultPlan) take(label, traceName string, tear bool) FaultKind {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, r := range p.rules {
		if (r.Kind == FaultTruncateJournal) != tear ||
			r.Label != "" && r.Label != label ||
			r.TraceName != "" && r.TraceName != traceName ||
			r.Times > 0 && p.fired[i] >= r.Times {
			continue
		}
		p.fired[i]++
		return r.Kind
	}
	return 0
}

func (p *FaultPlan) window(label, traceName string, win int) error {
	switch p.take(label, traceName, false) {
	case FaultPanic:
		panic(fmt.Sprintf("sim: injected panic in %s %s window %d", label, traceName, win))
	case FaultExit:
		os.Exit(3)
	case FaultError:
		return &injectedError{label: label, traceName: traceName, window: win}
	case FaultTransient:
		return &injectedError{label: label, traceName: traceName, window: win, transient: true}
	}
	return nil
}

func (p *FaultPlan) tear(label, traceName string) bool {
	return p.take(label, traceName, true) != 0
}

// injectedError is the error FaultError and FaultTransient produce.
type injectedError struct {
	label, traceName string
	window           int
	transient        bool
}

func (e *injectedError) Error() string {
	kind := "permanent"
	if e.transient {
		kind = "transient"
	}
	return fmt.Sprintf("sim: injected %s fault in %s %s window %d", kind, e.label, e.traceName, e.window)
}

// Transient marks the error retryable for the runner's retry policy.
func (e *injectedError) Transient() bool { return e.transient }
