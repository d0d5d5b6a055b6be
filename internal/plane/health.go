package plane

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/neterr"
	"repro/internal/trace"
)

// rebuildAfter is the repair threshold: a quarantined plane is rebuilt
// through Config.Rebuild after rebuildAfter consecutive failed readmission
// probe passes, or once rebuildAfter hard failures have taken it out of
// service since its router was installed.
const rebuildAfter = 3

// healthLoop is the supervisor's background control plane: a periodic sweep
// over every plane, kicked immediately when the hot path detects a failure.
func (s *Supervisor) healthLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.interval)
	defer ticker.Stop()
	// Scratch buffers reused across every probe the checker routes.
	src := make([]core.Word, s.n)
	dst := make([]core.Word, s.n)
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		case <-s.kick:
		}
		s.sweep(dst, src)
	}
}

// sweep advances every plane's state machine one step: suspect planes are
// quarantined and probed for readmission; quarantined planes are probed for
// readmission (rebuilt first when their failures call for it); admitting
// planes are probed for first admission; healthy idle planes are probed so
// a fault on a cold plane is found before live traffic hits it. A suspect
// plane is not drained first: routing is thread-safe, and a straggler
// still in flight holds the router it started on.
// Every repair-side transition is a CompareAndSwap from the state the
// checker observed: a membership operation that concurrently marks the
// plane Draining wins, and the checker backs off — a plane on its way out
// can never be resurrected by a stale probe result.
func (s *Supervisor) sweep(dst, src []core.Word) {
	for _, p := range s.snapshot() {
		switch State(p.state.Load()) {
		case Suspect:
			if !p.state.CompareAndSwap(int32(Suspect), int32(Quarantined)) {
				continue // now Draining: membership owns this plane
			}
			s.publishGauges()
			s.tryReadmit(p, dst, src, Quarantined)
		case Quarantined:
			s.tryReadmit(p, dst, src, Quarantined)
		case Admitting:
			s.tryReadmit(p, dst, src, Admitting)
		case Healthy:
			// Opportunistic idle probe: skip planes carrying live traffic —
			// their routes are verified inline anyway.
			if p.inflight.Load() == 0 {
				box := p.router.Load()
				if err := s.tracedProbePass(p, box.r, dst, src); err != nil {
					s.fail(p, box, err)
				}
			}
		}
	}
}

// tryReadmit runs a full probe pass over the quarantined (or admitting)
// plane and promotes it to Healthy on a clean pass — by CompareAndSwap
// from the state the caller observed, so a concurrent Draining mark wins.
// The plane is rebuilt from its constructor — the repair for faults that
// do not heal on their own — before the pass once rebuildAfter hard
// failures have taken it out of service, which catches a fault the probes
// miss, and after rebuildAfter consecutive failed passes, which catches
// one they see; a rebuilt plane is probed on this sweep or the next. First
// admissions (from Admitting) do not count as readmits: the plane was never
// in service. A pass whose router SwapPlane replaced while it ran is
// stale: its failure belongs to the router that is gone, so it neither
// counts toward the rebuild nor overwrites the new router.
func (s *Supervisor) tryReadmit(p *planeState, dst, src []core.Word, from State) {
	if p.hardQuars.Load() >= rebuildAfter {
		s.tryRebuild(p, p.router.Load())
	}
	begin := time.Now()
	box := p.router.Load()
	if err := s.tracedProbePass(p, box.r, dst, src); err != nil {
		if p.router.Load() != box {
			return
		}
		e := err
		p.lastErr.Store(&e)
		if p.failedProbes.Add(1) >= rebuildAfter {
			s.tryRebuild(p, box)
		}
		return
	}
	// A slow-quarantined plane must additionally prove speed: the probe
	// pass above is timed, and while its per-probe latency still exceeds
	// the slow threshold against the live fleet reference, the plane stays
	// quarantined. The probes passed functionally, so this does not count
	// toward the rebuild trigger — a rebuild cannot fix configured
	// slowness, and each probe pass advances a transient slow fault toward
	// its heal window.
	if p.slow.Load() && s.slowFactor > 0 && len(s.probes) > 0 {
		perProbe := time.Since(begin).Nanoseconds() / int64(len(s.probes))
		if ref := s.fastestOtherEwma(p); ref > 0 {
			threshold := int64(s.slowFactor * float64(ref))
			if threshold < s.slowFloorNs {
				threshold = s.slowFloorNs
			}
			if perProbe > threshold {
				return // still slow: wait for the fault to heal
			}
		}
	}
	if !p.state.CompareAndSwap(int32(from), int32(Healthy)) {
		return // now Draining or Detached: membership owns this plane
	}
	p.failedProbes.Store(0)
	if p.slow.Load() {
		// Forget the degraded latency history: a readmitted plane restarts
		// its EWMA cold, so stale slowness cannot re-trip the detector.
		p.slow.Store(false)
		p.latEwma.Store(0)
		p.slowStrikes.Store(0)
	}
	if from == Quarantined {
		p.readmits.Add(1)
		s.m.AddReadmit()
	}
	s.publishGauges()
}

// tryRebuild replaces the plane's router box with a freshly built router,
// by CompareAndSwap so a rebuild that loses to a concurrent SwapPlane is
// discarded whole, and restarts both rebuild counts for the new router.
func (s *Supervisor) tryRebuild(p *planeState, box *routerBox) {
	if s.rebuild == nil {
		return
	}
	r, err := s.rebuild()
	if err != nil || r == nil || r.Inputs() != s.n || !p.router.CompareAndSwap(box, &routerBox{r: r}) {
		return
	}
	p.repairs.Add(1)
	s.m.AddRepair()
	p.failedProbes.Store(0)
	p.hardQuars.Store(0)
}

// tracedProbePass routes the full probe set through the plane's router r
// and verifies every delivery, wrapped in a KindProbe span so probe traffic
// shows up in the trace ring alongside the live requests it protects.
func (s *Supervisor) tracedProbePass(p *planeState, r Router, dst, src []core.Word) error {
	sp := s.tracer.Start(trace.KindProbe, time.Now(), s.n)
	sp.SetPlane(p.id)
	err := s.probeRouter(r, p.id, dst, src)
	s.tracer.Finish(sp, err)
	return err
}

// probeRouter routes the probe set through an arbitrary router and verifies
// every delivery; the first failing probe aborts the pass. SwapPlane uses it
// to verify a replacement offline, before the router serves anything.
func (s *Supervisor) probeRouter(r Router, id int, dst, src []core.Word) error {
	for pi, probe := range s.probes {
		for i, dest := range probe {
			src[i] = core.Word{Addr: dest, Data: uint64(i)}
		}
		if err := r.RouteInto(dst, src); err != nil {
			return fmt.Errorf("plane %d: probe %d: %w", id, pi, err)
		}
		for j := range dst {
			if dst[j].Addr != j {
				return fmt.Errorf("plane %d: probe %d: output %d carries address %d: %w",
					id, pi, j, dst[j].Addr, neterr.ErrMisrouted)
			}
		}
	}
	return nil
}
