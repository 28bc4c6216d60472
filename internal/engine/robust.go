package engine

// This file is the robustness layer around query execution: the typed
// internal error that panic boundaries produce, the cooperative
// cancellation helper, the admission-control semaphore for concurrent
// hunts, and the names of the engine's fault-injection points.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"threatraptor/internal/relational"
	"threatraptor/internal/tbql"
)

// Fault-injection point names (see internal/faultinject). Disarmed they
// cost one atomic load; the chaos tests arm them to fail chosen hits.
const (
	// FaultAppendEntitiesRel fires before entity rows insert into the
	// relational backend.
	FaultAppendEntitiesRel = "engine/append/entities-rel"
	// FaultAppendEntitiesGraph fires before entity nodes insert into the
	// graph backend (after the relational insert — a torn-append probe).
	FaultAppendEntitiesGraph = "engine/append/entities-graph"
	// FaultAppendEventsRel fires before event rows insert into the
	// relational backend.
	FaultAppendEventsRel = "engine/append/events-rel"
	// FaultAppendEventsGraph fires before event edges insert into the
	// graph backend.
	FaultAppendEventsGraph = "engine/append/events-graph"
	// FaultAppendLog fires before the batch appends to the store's log.
	FaultAppendLog = "engine/append/log"
	// FaultExecutePattern fires at the head of every pattern data query —
	// on a scatter goroutine when a sharded coordinator fans the query
	// out, which is exactly where an unisolated panic would kill the
	// process.
	FaultExecutePattern = "engine/execute/pattern"
)

// InternalError is a panic during query execution, caught at the engine's
// per-query recover boundary and converted into an error so one poisoned
// query cannot take down the session (or the process, when the panic
// happened on an executor worker goroutine).
type InternalError struct {
	// Query is the TBQL text (or pattern identifier) being executed.
	Query string
	// Panic is the recovered panic value.
	Panic any
	// Stack is the goroutine stack captured at the recover site.
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("engine: internal error executing %q: %v", e.Query, e.Panic)
}

// guard is the per-query panic boundary: deferred at every public
// execution entry point, it converts a panic into an *InternalError
// carrying the query text and stack, and re-types a relational shard
// worker's captured panic (which arrives as an ordinary error — goroutine
// panics cannot cross recover boundaries) the same way. The query text is
// only formatted on the failure path.
func guard(a *tbql.Analyzed, errp *error) {
	if r := recover(); r != nil {
		if ie, ok := r.(*InternalError); ok {
			*errp = ie
			return
		}
		*errp = &InternalError{Query: tbql.Format(a.Query), Panic: r, Stack: debug.Stack()}
		return
	}
	var pe *relational.PanicError
	if errors.As(*errp, &pe) {
		*errp = &InternalError{Query: tbql.Format(a.Query), Panic: pe.Value, Stack: pe.Stack}
	}
}

// ctxErr is the engine-level cancellation checkpoint (pattern
// boundaries); a nil context is never cancelled.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// ErrOverloaded is the sentinel every admission rejection wraps;
// errors.Is(err, ErrOverloaded) identifies load shedding regardless of
// the limit or wait that produced it.
var ErrOverloaded = errors.New("engine: overloaded")

// OverloadedError is an admission-control rejection: the concurrent-hunt
// limit was reached and no slot freed within the queue timeout.
type OverloadedError struct {
	// Limit is the configured concurrent-hunt cap.
	Limit int
	// Waited is how long the hunt queued before giving up (zero when the
	// queue timeout is zero — immediate rejection).
	Waited time.Duration
}

func (e *OverloadedError) Error() string {
	if e.Waited > 0 {
		return fmt.Sprintf("engine: overloaded: %d hunts in flight, no slot freed in %v", e.Limit, e.Waited)
	}
	return fmt.Sprintf("engine: overloaded: %d hunts in flight", e.Limit)
}

// Unwrap makes errors.Is(err, ErrOverloaded) true.
func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// Admission is a bounded concurrent-hunt semaphore with a queue timeout:
// up to limit hunts run at once, later arrivals wait at most queueTimeout
// for a slot and are then shed with an *OverloadedError instead of piling
// up behind a slow hunt. A nil *Admission admits everything (no limit).
type Admission struct {
	slots   chan struct{}
	timeout time.Duration
	limit   int
}

// NewAdmission builds a semaphore admitting limit concurrent hunts; a
// queued hunt waits at most queueTimeout for a slot (zero: reject
// immediately when full). limit <= 0 returns nil — unlimited admission.
func NewAdmission(limit int, queueTimeout time.Duration) *Admission {
	if limit <= 0 {
		return nil
	}
	return &Admission{slots: make(chan struct{}, limit), timeout: queueTimeout, limit: limit}
}

// Acquire takes a hunt slot, waiting up to the queue timeout. It returns
// the release function the caller must defer, or an *OverloadedError
// (wrapping ErrOverloaded) when no slot frees in time, or ctx.Err() when
// the caller's context is cancelled first.
func (ad *Admission) Acquire(ctx context.Context) (release func(), err error) {
	if ad == nil {
		return func() {}, nil
	}
	select {
	case ad.slots <- struct{}{}:
		return func() { <-ad.slots }, nil
	default:
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if ad.timeout <= 0 {
		return nil, &OverloadedError{Limit: ad.limit}
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	start := time.Now()
	t := time.NewTimer(ad.timeout)
	defer t.Stop()
	select {
	case ad.slots <- struct{}{}:
		return func() { <-ad.slots }, nil
	case <-t.C:
		return nil, &OverloadedError{Limit: ad.limit, Waited: time.Since(start)}
	case <-done:
		return nil, ctx.Err()
	}
}

// InFlight reports how many hunt slots are currently held (0 for nil).
func (ad *Admission) InFlight() int {
	if ad == nil {
		return 0
	}
	return len(ad.slots)
}
