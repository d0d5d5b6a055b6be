// Package neterr defines the sentinel errors shared by every layer of the
// repository. Packages wrap them with %w so callers can classify failures
// with errors.Is through the public API (bnbnet re-exports the sentinels)
// without parsing error strings: a routing request either carried addresses
// that are not a permutation, carried the wrong number of words for the
// network, or hit an engine that has been shut down.
//
// The fault-tolerance sentinels split routing failures into the classes the
// serving layer's recovery policy needs: ErrTransient marks a failure worth
// retrying (the underlying fault has a heal time), ErrMisrouted marks a hard
// delivery fault (a stuck element or dead link corrupted the arrangement),
// and ErrTimeout marks requests abandoned by deadline.
package neterr

import "errors"

var (
	// ErrNotPermutation reports destination addresses that do not form a
	// permutation of {0,...,N-1} (out-of-range or duplicate destinations).
	ErrNotPermutation = errors.New("not a permutation")

	// ErrBadSize reports a payload whose length does not match the port
	// count of the network or engine it was offered to.
	ErrBadSize = errors.New("size mismatch")

	// ErrClosed reports a request submitted to an engine after Close.
	ErrClosed = errors.New("engine closed")

	// ErrTransient reports a routing failure caused by a fault that is
	// scheduled to heal; retrying the request is expected to succeed.
	ErrTransient = errors.New("transient routing fault")

	// ErrMisrouted reports a delivery that violated the permutation-network
	// contract (out[j].Addr != j for some output j) — the signature of a
	// stuck switching element or a dead link.
	ErrMisrouted = errors.New("misrouted delivery")

	// ErrTimeout reports a request abandoned because its per-request
	// deadline expired before a route attempt succeeded.
	ErrTimeout = errors.New("request timed out")

	// ErrOverloaded reports a request shed without being routed: the
	// engine's load-shedding policy judged that the request's deadline cannot
	// be met at the current queue depth, a background queue was full, or no
	// router plane was in service. Retrying later or with a looser deadline
	// may succeed.
	ErrOverloaded = errors.New("overloaded")

	// ErrMismatch reports a differential-verification failure: two network
	// implementations routed the same request and disagreed word-for-word,
	// or a metamorphic relation between two routes of one network was
	// violated. At least one of the implementations is wrong.
	ErrMismatch = errors.New("differential mismatch")

	// ErrPlanMismatch reports a compiled plan replayed against a request it
	// was not compiled for: the offered source addresses differ from the
	// plan's permutation (or the plan belongs to a different network order).
	// Replaying such a batch would silently misdeliver, so it is refused.
	ErrPlanMismatch = errors.New("plan does not match the offered permutation")

	// ErrDraining reports a request refused at admission because the engine
	// is draining: Drain (or a drain-by-default Close) has stopped intake
	// while previously admitted requests run to completion. Unlike
	// ErrClosed, draining is a transient lifecycle phase announced ahead of
	// shutdown — load balancers should steer new traffic elsewhere.
	ErrDraining = errors.New("engine draining")

	// ErrPoisoned reports a request rejected by the poison quarantine: its
	// fingerprint has triggered hard routing failures on multiple distinct
	// planes, which blames the request rather than any plane. Rejecting it
	// at admission stops one bad request from cascading quarantines across
	// the fleet. The quarantine entry expires after a TTL, so a later retry
	// of the same arrangement may be admitted again.
	ErrPoisoned = errors.New("poisoned request")
)
