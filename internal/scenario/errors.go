// The sweep error taxonomy: every way a cell can fail maps onto one
// of four kinds, carried as structured fields on an error Result line
// instead of crashing the sweep. Spec-level failures name the field
// they arrived in (SpecError); a completed sweep with failed cells
// reports them in aggregate (AggregateError) alongside the full
// result set, error lines included.

package scenario

import (
	"context"
	"errors"
	"fmt"
)

// The error_kind values of error Result lines.
const (
	// ErrKindPanic marks a recovered panic: a bug or data corruption
	// in the cell's routing, isolated to its one error line.
	ErrKindPanic = "panic"
	// ErrKindTimeout marks a cell cut off by its per-cell deadline
	// (Spec.TimeoutMS / Cell.Timeout). Transient: a resumed or
	// retried sweep runs the cell again.
	ErrKindTimeout = "timeout"
	// ErrKindCanceled marks a cell aborted by sweep-level
	// cancellation. Transient, like ErrKindTimeout.
	ErrKindCanceled = "canceled"
	// ErrKindInvalidSpec marks a cell whose configuration cannot run:
	// unknown axis values, capability mismatches, resource refusals.
	// Deterministic — re-running reproduces it.
	ErrKindInvalidSpec = "invalid_spec"
)

// transientKind reports whether the kind depends on run conditions
// (load, deadlines, cancellation) rather than the spec: transient
// error lines are never journaled, so a resumed or retried sweep runs
// those cells again instead of trusting a stale verdict.
func transientKind(kind string) bool {
	return kind == ErrKindTimeout || kind == ErrKindCanceled
}

// classifyErr maps a cell error onto its error_kind.
func classifyErr(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return ErrKindTimeout
	case errors.Is(err, context.Canceled):
		return ErrKindCanceled
	default:
		return ErrKindInvalidSpec
	}
}

// SpecError is a sweep-spec validation failure naming the offending
// field (the JSON key of the Spec axis or knob), so malformed specs
// fail with an actionable message — and as an invalid_spec error line
// when a cell-level check trips one.
type SpecError struct {
	// Field is the Spec's JSON key the bad value arrived in
	// ("topologies", "workloads", "modes", "trials", ...), or "cells"
	// when two axis values expand to the same cell.
	Field string
	Err   error
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("scenario: spec field %q: %v", e.Field, e.Err)
}

func (e *SpecError) Unwrap() error { return e.Err }

// AggregateError reports that a completed sweep carried failed cells.
// Run returns it alongside the full result set — error lines included
// — so callers can persist the artifact and still exit nonzero;
// errors.As distinguishes it from spec-level failures that produced
// no results at all.
type AggregateError struct {
	// Failed counts the error Result lines; Total the grid size.
	Failed, Total int
	// First is the first failing result in scenario-key order.
	First Result
}

func (e *AggregateError) Error() string {
	return fmt.Sprintf("scenario: %d of %d cells failed (first: %s: %s: %s)",
		e.Failed, e.Total, e.First.Scenario, e.First.ErrorKind, e.First.Error)
}
