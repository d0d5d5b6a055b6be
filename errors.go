package bnbnet

import "repro/internal/neterr"

// Sentinel errors of the public API. Every layer — core routing, the
// permutation workloads, the fabric simulator, and the serving engine —
// wraps these with %w, so callers classify failures with errors.Is instead
// of string matching:
//
//	if errors.Is(err, bnbnet.ErrNotPermutation) { ... // bad request
//	if errors.Is(err, bnbnet.ErrBadSize)        { ... // wrong word count
//	if errors.Is(err, bnbnet.ErrClosed)         { ... // engine shut down
var (
	// ErrNotPermutation reports destination addresses that do not form a
	// permutation of {0,...,N-1}.
	ErrNotPermutation = neterr.ErrNotPermutation
	// ErrBadSize reports a payload whose length does not match the network
	// or engine port count.
	ErrBadSize = neterr.ErrBadSize
	// ErrClosed reports a request submitted to an engine after Close.
	ErrClosed = neterr.ErrClosed
	// ErrTransient marks a failure expected to heal — injected chaos faults
	// within their window. An engine reports it to the caller; a supervised
	// front routes around it on another plane.
	ErrTransient = neterr.ErrTransient
	// ErrMisrouted reports a verified pass that delivered at least one word
	// to the wrong output (or lost it to a dead link).
	ErrMisrouted = neterr.ErrMisrouted
	// ErrTimeout reports a request abandoned by its WithTimeout deadline.
	ErrTimeout = neterr.ErrTimeout
	// ErrOverloaded reports a request shed without being routed: under
	// WithShedding its deadline cannot be met at the current queue depth, a
	// background queue is full, or no supervised plane is in service.
	ErrOverloaded = neterr.ErrOverloaded
	// ErrMismatch reports a differential-verification failure: two networks
	// disagreed word-for-word on the same request, or a metamorphic relation
	// between two routes was violated (NewDifferential, Verify).
	ErrMismatch = neterr.ErrMismatch
	// ErrPlanMismatch reports a compiled Plan replayed against a batch whose
	// source addresses differ from the plan's permutation (or a plan from a
	// different network order). Replaying would silently misdeliver, so the
	// batch is refused; compile a plan for the offered permutation instead.
	ErrPlanMismatch = neterr.ErrPlanMismatch
	// ErrDraining reports a request refused at admission while the engine
	// drains: Drain stopped intake, in-flight requests are completing, and
	// Close has not yet happened. Distinct from ErrClosed so operators can
	// tell "steer traffic away, shutdown imminent" from "already gone".
	ErrDraining = neterr.ErrDraining
	// ErrPoisoned reports a request rejected by the supervisor's poison
	// quarantine: the same request fingerprint caused hard routing failures
	// on multiple distinct planes, so the request — not the planes — is to
	// blame. The quarantine entry expires after a TTL.
	ErrPoisoned = neterr.ErrPoisoned
)
