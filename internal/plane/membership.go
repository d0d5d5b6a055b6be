package plane

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/neterr"
)

// This file is the runtime-membership side of the supervisor: planes can be
// added, removed, and have their routers swapped while the hot path keeps
// serving. All three operations follow the same discipline:
//
//   - membership mutations serialize on memberMu and publish a fresh
//     snapshot slice through the atomic pointer, so a routing call in
//     flight keeps the slice it loaded and never observes a half-edit;
//   - state transitions into Draining are CAS loops against the hot path's
//     Healthy→Suspect edge and the health checker's repair edges, so a
//     plane can never be resurrected once it has started leaving;
//   - a plane leaves (or has its router replaced) only after its in-flight
//     count reaches zero, so no request ever runs on a router that has been
//     handed back to the caller.

// swapYield, when non-nil, is invoked by SwapPlane between the drain
// completing and the new router being installed — the mid-swap preemption
// point the deterministic schedule tests park on. Production leaves it nil.
var swapYield func()

// memberDrainPoll is the poll interval while waiting for a draining
// plane's in-flight requests to land.
const memberDrainPoll = 50 * time.Microsecond

// AddPlane adds a router to the serving set at runtime. The plane starts
// Admitting: it carries no live traffic until the health checker's next
// full probe pass comes back clean and promotes it to Healthy (use
// AwaitHealthy to block on that). The returned id is stable for the
// plane's lifetime and never reused.
func (s *Supervisor) AddPlane(r Router) (int, error) {
	if s.closed.Load() {
		return 0, fmt.Errorf("plane: %w", neterr.ErrClosed)
	}
	if r == nil {
		return 0, fmt.Errorf("plane: nil router")
	}
	if r.Inputs() != s.n {
		return 0, fmt.Errorf("plane: router has %d ports, supervisor has %d: %w", r.Inputs(), s.n, neterr.ErrBadSize)
	}
	s.memberMu.Lock()
	p := &planeState{id: s.nextID}
	s.nextID++
	p.state.Store(int32(Admitting))
	p.router.Store(&routerBox{r: r})
	old := s.snapshot()
	next := make([]*planeState, len(old), len(old)+1)
	copy(next, old)
	next = append(next, p)
	s.planes.Store(&next)
	s.memberMu.Unlock()
	s.m.AddPlaneAdded()
	s.publishGauges()
	s.kickChecker()
	return p.id, nil
}

// RemovePlane drains the identified plane and detaches it from the serving
// set: the plane stops receiving new requests immediately (state Draining),
// RemovePlane waits for its in-flight requests to land, then marks it
// Detached and removes it from the membership. At least two planes must
// remain, preserving the supervisor's redundancy invariant. If ctx expires
// before the drain completes, the plane is parked in Quarantine instead —
// the health checker will probe it back to Healthy — and the membership is
// unchanged.
func (s *Supervisor) RemovePlane(ctx context.Context, id int) error {
	if s.closed.Load() {
		return fmt.Errorf("plane: %w", neterr.ErrClosed)
	}
	s.memberMu.Lock()
	defer s.memberMu.Unlock()
	p := s.byID(id)
	if p == nil {
		return fmt.Errorf("plane: no plane with id %d", id)
	}
	if len(s.snapshot()) <= 2 {
		return fmt.Errorf("plane: removing plane %d would leave fewer than 2 planes", id)
	}
	if !s.markDraining(p) {
		return fmt.Errorf("plane: plane %d is already detached", id)
	}
	s.publishGauges()
	if err := s.awaitIdle(ctx, p); err != nil {
		// Drain overran its deadline: abort the removal. Quarantine is the
		// safe parking state — no live traffic, and the checker readmits
		// the plane once a full probe pass comes back clean.
		p.state.Store(int32(Quarantined))
		s.publishGauges()
		s.kickChecker()
		return fmt.Errorf("plane: drain of plane %d: %w", id, err)
	}
	p.state.Store(int32(Detached))
	old := s.snapshot()
	next := make([]*planeState, 0, len(old)-1)
	for _, q := range old {
		if q.id != id {
			next = append(next, q)
		}
	}
	s.planes.Store(&next)
	s.m.AddPlaneRemoved()
	s.publishGauges()
	return nil
}

// SwapPlane replaces the identified plane's router under traffic: the new
// router is verified with a full offline probe pass first (it is not
// serving yet, so a failure leaves the membership untouched), the plane is
// drained exactly like a removal, the router pointer is swapped, and the
// plane returns to Healthy. In-flight requests hold the router they
// started on, so a straggler past the deadline finishes — verified — on
// the old router; if ctx expires the swap still completes, and the
// context's error is reported so the caller knows the drain was cut short.
func (s *Supervisor) SwapPlane(ctx context.Context, id int, r Router) error {
	if s.closed.Load() {
		return fmt.Errorf("plane: %w", neterr.ErrClosed)
	}
	if r == nil {
		return fmt.Errorf("plane: nil router")
	}
	if r.Inputs() != s.n {
		return fmt.Errorf("plane: router has %d ports, supervisor has %d: %w", r.Inputs(), s.n, neterr.ErrBadSize)
	}
	// Pre-admission verification, outside the membership lock: the
	// replacement must route the full probe set cleanly before it is
	// allowed anywhere near live traffic.
	dst := make([]core.Word, s.n)
	src := make([]core.Word, s.n)
	if err := s.probeRouter(r, id, dst, src); err != nil {
		return fmt.Errorf("plane: replacement for plane %d failed verification: %w", id, err)
	}
	s.memberMu.Lock()
	defer s.memberMu.Unlock()
	p := s.byID(id)
	if p == nil {
		return fmt.Errorf("plane: no plane with id %d", id)
	}
	if !s.markDraining(p) {
		return fmt.Errorf("plane: plane %d is already detached", id)
	}
	s.publishGauges()
	drainErr := s.awaitIdle(ctx, p)
	if swapYield != nil {
		swapYield()
	}
	p.router.Store(&routerBox{r: r})
	// The replacement passed a full probe pass moments ago; any readmit
	// probation and hard-failure count belonged to the old router.
	p.failedProbes.Store(0)
	p.hardQuars.Store(0)
	p.state.Store(int32(Healthy))
	s.publishGauges()
	if drainErr != nil {
		return fmt.Errorf("plane: swap of plane %d completed, but the drain was cut short: %w", id, drainErr)
	}
	return nil
}

// AwaitHealthy blocks until the identified plane reaches Healthy (kicking
// the health checker along so admission probes run promptly), the plane
// leaves the membership, or ctx expires.
func (s *Supervisor) AwaitHealthy(ctx context.Context, id int) error {
	for {
		p := s.byID(id)
		if p == nil {
			return fmt.Errorf("plane: no plane with id %d", id)
		}
		if State(p.state.Load()) == Healthy {
			return nil
		}
		s.kickChecker()
		select {
		case <-ctx.Done():
			return fmt.Errorf("plane: waiting for plane %d: %w", id, ctx.Err())
		case <-time.After(memberDrainPoll):
		}
	}
}

// markDraining moves the plane into Draining from whatever serving state
// it is in, winning the race against the hot path's Healthy→Suspect edge
// and the checker's repair edges. It reports false only for a plane
// already Detached.
func (s *Supervisor) markDraining(p *planeState) bool {
	for {
		cur := p.state.Load()
		switch State(cur) {
		case Detached:
			return false
		case Draining:
			return true
		}
		if p.state.CompareAndSwap(cur, int32(Draining)) {
			return true
		}
	}
}

// awaitIdle waits for the plane's in-flight requests to land, bounded by
// ctx.
func (s *Supervisor) awaitIdle(ctx context.Context, p *planeState) error {
	for p.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(memberDrainPoll):
		}
	}
	return nil
}

// kickChecker nudges the health loop so admission and readmission probes
// run without waiting out the sweep interval.
func (s *Supervisor) kickChecker() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}
