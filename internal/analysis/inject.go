package analysis

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// Fault is a test-only injected failure, keyed by filename and fired
// when ParseCtx processes that file. It exists so every containment
// path of the batch pipeline — panic isolation, deadline cut-off,
// budget degradation — can be exercised deterministically, including
// under the race detector. Production code never registers faults, and
// the hook costs one atomic load per parse while the registry is empty.
type Fault struct {
	// Panic makes the parse panic with a distinctive value, simulating
	// a crash inside the per-file unit of work.
	Panic bool
	// Delay blocks the parse for the given duration, simulating a
	// stalled solver. The wait is context-aware: a deadline or
	// cancellation interrupts it through the fault sentinel, exactly
	// like a real solver iteration would be interrupted.
	Delay time.Duration
	// Budget, when > 0, overrides the snapshot's step and context
	// budgets, simulating budget exhaustion (1 exhausts almost any
	// solve).
	Budget int
	// Skip lets this many ParseCtx calls for the file through before
	// firing — e.g. Skip: 1 spares the SLR parse and hits STR's
	// re-parse, exercising the partial-result path.
	Skip int
	// Export fires the fault when a snapshot of the file exports its
	// external calls (Snapshot.ExternalCalls, the project link scan)
	// instead of at parse, so a failure after a finished fix can be
	// exercised. Skip then counts exports; Budget does not apply.
	Export bool
}

var (
	injectActive atomic.Int32
	injectMu     sync.Mutex
	injected     map[string]*injectedFault
)

type injectedFault struct {
	fault Fault
	seen  int
}

// InjectFault registers a test-only fault for filename and returns a
// function that removes it. Safe for concurrent use.
func InjectFault(filename string, f Fault) (remove func()) {
	injectMu.Lock()
	if injected == nil {
		injected = make(map[string]*injectedFault)
	}
	injected[filename] = &injectedFault{fault: f}
	injectMu.Unlock()
	injectActive.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			injectMu.Lock()
			delete(injected, filename)
			injectMu.Unlock()
			injectActive.Add(-1)
		})
	}
}

// applyInjectedFault fires a registered fault for filename, if any.
// ParseCtx calls it before parsing (export false, conf set);
// ExternalCalls before exporting (export true, conf nil).
func applyInjectedFault(ctx context.Context, filename string, conf *Config, export bool) {
	if injectActive.Load() == 0 {
		return
	}
	injectMu.Lock()
	inj := injected[filename]
	var f Fault
	fire := false
	if inj != nil && inj.fault.Export == export {
		fire = inj.seen >= inj.fault.Skip
		inj.seen++
		f = inj.fault
	}
	injectMu.Unlock()
	if !fire {
		return
	}
	if f.Delay > 0 {
		t := time.NewTimer(f.Delay)
		defer t.Stop()
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		select {
		case <-t.C:
		case <-done:
			fault.CheckCtx(ctx) // panics with the cancellation sentinel
		}
	}
	if f.Budget > 0 && conf != nil {
		conf.Limits.Steps = f.Budget
		conf.Limits.Contexts = f.Budget
	}
	if f.Panic {
		panic(fmt.Sprintf("injected fault: %s", filename))
	}
}
