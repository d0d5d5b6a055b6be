package bnbnet

// This file exposes the hitless live-reconfiguration surface of the
// supervised planes: AddPlane and RemovePlane change the redundancy degree
// at runtime, and Reconfigure rolls the whole fleet onto freshly built
// planes — optionally pre-warming each new plan cache from the hottest
// plans of the outgoing one — without dropping, failing or misrouting a
// single in-flight request (DESIGN.md §13). Every operation rides the
// supervisor's membership machinery: one atomic snapshot per routing call,
// CAS state transitions that always lose to a plane on its way out, and a
// per-plane drain before any router is detached or replaced.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/plancache"
	"repro/internal/plane"
	"repro/internal/trace"
)

// ReconfigOption tunes one Reconfigure call.
type ReconfigOption func(*reconfigOptions) error

type reconfigOptions struct {
	planes   int // target plane count; 0 keeps the current count
	warmTopK int // hottest plans pre-warmed per rebuilt plane; 0 disables
}

// ReconfigPlanes sets the rollout's target plane count: Reconfigure grows
// the fleet before any plane drains (capacity only ever increases while old
// planes still serve) and shrinks it only after the survivors run the new
// configuration. At least 2 planes must remain — the supervisor's
// redundancy floor.
func ReconfigPlanes(k int) ReconfigOption {
	return func(o *reconfigOptions) error {
		if k < 2 {
			return fmt.Errorf("bnbnet: ReconfigPlanes(%d): need at least 2 planes", k)
		}
		o.planes = k
		return nil
	}
}

// ReconfigWarmPlans pre-warms each rebuilt plane's plan cache with up to
// topK of the outgoing cache's hottest plans, so the first post-rollout
// requests replay from cache instead of paying a compile. Every candidate
// plan is re-verified on the new plane first — ReplayWired drives the probe
// words through the full wiring reading every switch from the plan's
// bitsets — so a stale or corrupt plan can never be warmed into service.
// topK = 0 (the default) disables pre-warming.
func ReconfigWarmPlans(topK int) ReconfigOption {
	return func(o *reconfigOptions) error {
		if topK < 0 {
			return fmt.Errorf("bnbnet: ReconfigWarmPlans(%d): negative count", topK)
		}
		o.warmTopK = topK
		return nil
	}
}

// AddPlane builds one fresh plane of the configured family, verifies it
// with the same full offline probe pass a Reconfigure swap runs, and adds
// it to the serving set as Healthy: it returns the plane's stable id with
// the plane already serving. A plane that fails the pass is not added.
// The build and the pass do not wait on traffic, so ctx is checked only
// before they start. Once a Drain or Close has begun the fleet no longer
// admits traffic, so AddPlane fails with ErrDraining or ErrClosed.
func (s *Supervised) AddPlane(ctx context.Context) (int, error) {
	s.reconfigMu.Lock()
	defer s.reconfigMu.Unlock()
	if err := s.e.AdmissionErr(); err != nil {
		return 0, fmt.Errorf("bnbnet: add plane: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.addPlane(nil, 0)
}

// addPlane builds, optionally pre-warms and adds one plane. Callers hold
// reconfigMu.
func (s *Supervised) addPlane(donor *plancache.Cache, topK int) (int, error) {
	r, err := s.build()
	if err != nil {
		return 0, err
	}
	s.warm(r, donor, topK)
	return s.sup.AddPlane(r)
}

// RemovePlane drains the identified plane and detaches it from the serving
// set: the plane stops receiving new requests immediately, RemovePlane
// waits for its in-flight requests to land, then removes it with its plan
// cache. At least two planes must remain. If ctx expires before the
// drain completes, the plane is parked in Quarantine — the health checker
// readmits it once idle probes pass — and the membership is unchanged.
// Once a Drain or Close has begun, RemovePlane fails with ErrDraining or
// ErrClosed.
func (s *Supervised) RemovePlane(ctx context.Context, id int) error {
	s.reconfigMu.Lock()
	defer s.reconfigMu.Unlock()
	if err := s.e.AdmissionErr(); err != nil {
		return fmt.Errorf("bnbnet: remove plane: %w", err)
	}
	return s.sup.RemovePlane(ctx, id)
}

// Reconfigure rolls the supervised fleet onto a freshly built plane set
// while it serves — a hitless rollout. The sequence is grow, swap, shrink:
// when ReconfigPlanes raises the count, new planes are built, probed and
// admitted first, so serving capacity only ever increases before anything
// drains; then every surviving plane is rebuilt and swapped in place — the
// replacement is verified with a full offline probe pass, the plane drains
// its in-flight requests, and the router pointer flips atomically, with the
// other planes carrying the traffic meanwhile; finally, planes beyond the
// target count drain and detach. Plan caches are rebuilt alongside their
// planes, pre-warmed from the outgoing caches under ReconfigWarmPlans.
//
// Throughout the rollout every submitted request completes, verified, on
// some healthy plane: no request is lost, failed or misrouted by the
// reconfiguration itself. If ctx expires mid-drain, an in-place swap still
// completes (the straggler finishes, verified, on the old router) and the
// context's error is reported; a pending removal parks the plane in
// Quarantine instead. Reconfigure calls serialize; each records one
// KindReconfig span and one Reconfigs metrics tick. Once a Drain or Close
// has begun there is no traffic left to roll, so Reconfigure fails with
// ErrDraining or ErrClosed.
func (s *Supervised) Reconfigure(ctx context.Context, opts ...ReconfigOption) error {
	var o reconfigOptions
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return err
		}
	}
	s.reconfigMu.Lock()
	defer s.reconfigMu.Unlock()
	if err := s.e.AdmissionErr(); err != nil {
		return fmt.Errorf("bnbnet: reconfigure: %w", err)
	}
	sp := s.tracer.Start(trace.KindReconfig, time.Now(), s.Inputs())
	err := s.reconfigure(ctx, o)
	s.tracer.Finish(sp, err)
	if err == nil {
		s.m.AddReconfig()
	}
	return err
}

// reconfigure runs the grow → swap → shrink rollout. Callers hold
// reconfigMu.
func (s *Supervised) reconfigure(ctx context.Context, o reconfigOptions) error {
	originals := s.sup.PlaneIDs()
	target := o.planes
	if target == 0 {
		target = len(originals)
	}
	// Planes beyond the target count are not rebuilt — they leave in the
	// shrink phase once the survivors run the new configuration.
	keep := originals
	if target < len(keep) {
		keep = keep[:target]
	}
	// Grow first: added planes warm from the first original's cache — a
	// view of current traffic — and are fully probed before the supervisor
	// lets them serve.
	donor := s.planCache(originals[0])
	for grow := target - len(originals); grow > 0; grow-- {
		if _, err := s.addPlane(donor, o.warmTopK); err != nil {
			return fmt.Errorf("bnbnet: reconfigure: adding plane: %w", err)
		}
	}
	// Rolling in-place swap of every surviving plane: fresh router, fresh
	// cache pre-warmed from the plane's own outgoing cache.
	for _, id := range keep {
		r, err := s.build()
		if err != nil {
			return fmt.Errorf("bnbnet: reconfigure: rebuilding plane %d: %w", id, err)
		}
		s.warm(r, s.planCache(id), o.warmTopK)
		if err := s.sup.SwapPlane(ctx, id, r); err != nil {
			return fmt.Errorf("bnbnet: reconfigure: %w", err)
		}
	}
	// Shrink last, newest members first, never below the redundancy floor.
	for _, id := range originals[len(keep):] {
		if err := s.sup.RemovePlane(ctx, id); err != nil {
			return fmt.Errorf("bnbnet: reconfigure: %w", err)
		}
	}
	return nil
}

// warm seeds a fresh plane's plan cache with up to topK of the donor
// cache's hottest plans, admitting each plan only after it replays
// correctly on the new plane's own network via the wired reference path.
// An uncached plane is left alone. Each admitted plan lands one PlanWarms
// tick in the metrics sink.
func (s *Supervised) warm(r plane.Router, donor *plancache.Cache, topK int) {
	cached, ok := r.(*cachedPlanRouter)
	if !ok || donor == nil || topK <= 0 {
		return
	}
	n := cached.b.Inputs()
	for _, pl := range donor.Hot(topK) {
		if pl.Inputs() != n {
			continue
		}
		words := make([]Word, n)
		for i, d := range pl.Perm() {
			words[i] = Word{Addr: d, Data: uint64(i)}
		}
		out, err := cached.b.n.ReplayWired(pl, words)
		if err != nil {
			continue
		}
		delivered := true
		for j := range out {
			if out[j].Addr != j {
				delivered = false
				break
			}
		}
		if !delivered {
			continue
		}
		cached.cache.Insert(pl)
		s.m.AddPlanWarm()
	}
}
