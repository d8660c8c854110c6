package core

import (
	"context"
	"fmt"
)

// StopReason classifies why a search (or one of its restarts) stopped.
// The taxonomy is part of the failure-semantics contract (DESIGN.md): a
// caller that time-boxes or cancels a search still receives a well-formed
// SearchResult carrying the best point found so far, and reads the reason
// here instead of an error.
type StopReason int

const (
	// StopNone is the zero value: the search has not stopped (or the result
	// predates the taxonomy, e.g. was read from an old JSON file).
	StopNone StopReason = iota
	// StopConverged means the iteration budget ran to completion.
	StopConverged
	// StopPatience means every live restart retired early after Patience
	// evaluations without improvement.
	StopPatience
	// StopDeadline means the context's deadline expired mid-search.
	StopDeadline
	// StopCancelled means the context was cancelled mid-search.
	StopCancelled
	// StopFaulted means every restart was retired by a contained component
	// failure (panic or persistent solver error); nothing ran to completion.
	StopFaulted
)

func (s StopReason) String() string {
	switch s {
	case StopConverged:
		return "converged"
	case StopPatience:
		return "patience"
	case StopDeadline:
		return "deadline"
	case StopCancelled:
		return "cancelled"
	case StopFaulted:
		return "faulted"
	default:
		return "none"
	}
}

// stopReasonFromString is the inverse of String, for JSON round-trips.
func stopReasonFromString(s string) StopReason {
	switch s {
	case "converged":
		return StopConverged
	case "patience":
		return StopPatience
	case "deadline":
		return StopDeadline
	case "cancelled":
		return StopCancelled
	case "faulted":
		return StopFaulted
	default:
		return StopNone
	}
}

// ctxStopReason maps a context error to the matching StopReason.
func ctxStopReason(err error) StopReason {
	if err == context.DeadlineExceeded {
		return StopDeadline
	}
	return StopCancelled
}

// ComponentError is a contained failure of one pipeline stage or solver
// during the search: a recovered panic (ad shape mismatch, linalg dimension
// panic) or a structured error (non-optimal LP status) that retired a single
// restart — or, for Restart == -1, faulted the shared stages of a
// multi-restart group, which cannot be attributed to one row.
type ComponentError struct {
	// Restart is the restart index the fault was attributed to (-1 when the
	// fault hit a shared stage of a multi-restart group).
	Restart int
	// Iter is the outer iteration at which the fault occurred.
	Iter int
	// Stage names the component boundary that faulted (e.g. "pipeline-vjp",
	// "constraint-mlu", "ratio-eval", "fault-injector").
	Stage string
	// Err is the underlying error; recovered panics are wrapped so the
	// original value is preserved in the message.
	Err error
}

// Error implements error.
func (e *ComponentError) Error() string {
	return fmt.Sprintf("core: restart %d iter %d stage %s: %v", e.Restart, e.Iter, e.Stage, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ComponentError) Unwrap() error { return e.Err }

// RestartOutcome records how one restart ended — the per-restart row of the
// failure-semantics contract.
type RestartOutcome struct {
	// Restart is the restart index.
	Restart int
	// Stop is why this restart stopped (never StopNone on a finished search).
	Stop StopReason
	// BestRatio is the best verified ratio this restart discovered (0 if
	// none).
	BestRatio float64
	// Iters is the number of outer iterations the restart completed.
	Iters int
	// Fault is the contained failure that retired the restart, when Stop ==
	// StopFaulted.
	Fault *ComponentError
}

// maxRecordedFaults caps SearchResult.Faults so a persistently failing
// component cannot grow the result without bound; FaultCount keeps the true
// total.
const maxRecordedFaults = 64

// contained runs fn under a recover() boundary, converting a panic into a
// typed *ComponentError attributed to (restart, iter) and the stage named by
// *stage at the time of the panic (the body may update *stage as it moves
// between component boundaries). Returns nil when fn completes.
func contained(restart, iter int, stage *string, fn func()) (cerr *ComponentError) {
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok {
				err = fmt.Errorf("panic: %v", r)
			}
			cerr = &ComponentError{Restart: restart, Iter: iter, Stage: *stage, Err: err}
		}
	}()
	fn()
	return nil
}
