// Package trace is the request-level observability layer of the serving
// stack: a per-request Span threads from engine admission through supervisor
// plane selection into the plane router, recording queue wait, service time,
// failovers and shed decisions, and completed spans land in
// a lock-free ring buffer with the slowest requests additionally captured as
// exemplars.
//
// The design contract is zero cost when disabled: a nil *Tracer is a valid
// tracer whose Start returns a nil *Span, and every method on both types is
// nil-safe, so the hot path carries exactly one nil check and no
// allocations. When enabled, each request costs one Span allocation, two
// short registry critical sections, and one atomic pointer store into the
// ring — the overhead budget DESIGN.md §11 quantifies.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a span's origin.
type Kind string

const (
	// KindRequest spans are live routing requests served by the engine.
	KindRequest Kind = "request"
	// KindProbe spans are health-checker probe passes over a plane.
	KindProbe Kind = "probe"
	// KindReconfig spans are live reconfigurations: one span per
	// Reconfigure call, covering plane adds, drains, swaps and cache
	// pre-warming end to end.
	KindReconfig Kind = "reconfig"
)

// Span is one request's life through the serving stack. Fields are written
// by the goroutine currently carrying the request (submitter, then the
// worker or the waiter that claimed it) and are frozen once Finish or Flush
// publishes the span into the ring.
type Span struct {
	// ID is the span's sequence number, assigned at Start; IDs order spans
	// by admission, ring positions order them by completion.
	ID uint64 `json:"id"`
	// Kind tells live requests from health probes.
	Kind Kind `json:"kind"`
	// Start is the admission (Submit) time.
	Start time.Time `json:"start"`
	// Words is the request's port count.
	Words int `json:"words"`
	// QueueWait is the time from Submit until a worker or the claiming
	// waiter picked the request up; zero for spans that never queued
	// (probes, shed requests).
	QueueWait time.Duration `json:"queue_wait"`
	// Service is the time from pickup to completion, failover attempts
	// included.
	Service time.Duration `json:"service"`
	// Total is the end-to-end latency (queue wait + service).
	Total time.Duration `json:"total"`
	// Attempts counts the planes tried by the supervisor (1 on the fast
	// path); zero when no supervisor served the request.
	Attempts int32 `json:"attempts"`
	// Failovers counts plane failures this request routed around.
	Failovers int32 `json:"failovers"`
	// Plane is the plane that finally served the request, -1 when unknown
	// (no supervisor, or the request never routed).
	Plane int32 `json:"plane"`
	// PlanHit reports the request was served by replaying a cached route
	// plan instead of re-running the self-routing control plane.
	PlanHit bool `json:"plan_hit,omitempty"`
	// PlanCompile is the time spent compiling a route plan for this request
	// (a plan-cache miss on the compiled fast path); zero on hits and on
	// requests routed live.
	PlanCompile time.Duration `json:"plan_compile,omitempty"`
	// Hedges counts hedge timers fired for this request — late primaries
	// re-issued on another plane, first response winning.
	Hedges int32 `json:"hedges,omitempty"`
	// Class is the request's QoS admission class ("background", "standard",
	// "critical"); empty for untyped submissions and probes.
	Class string `json:"class,omitempty"`
	// Poisoned reports the request was rejected (or condemned) by the
	// poison quarantine (ErrPoisoned).
	Poisoned bool `json:"poisoned,omitempty"`
	// Shed reports the request was rejected by admission control, or found
	// no supervised plane in service (ErrOverloaded).
	Shed bool `json:"shed,omitempty"`
	// Claimed reports the request was taken off the engine queue and routed
	// by the caller waiting on it, not by a worker.
	Claimed bool `json:"claimed,omitempty"`
	// Aborted reports the span was flushed at Close before its request
	// finished, so its timings cover only the observed prefix.
	Aborted bool `json:"aborted,omitempty"`
	// Err is the request's outcome error, empty on success.
	Err string `json:"err,omitempty"`
}

// Dequeued stamps the moment a worker picked the request up, fixing the
// span's queue wait. Nil-safe.
func (sp *Span) Dequeued(now time.Time) {
	if sp != nil {
		sp.QueueWait = now.Sub(sp.Start)
	}
}

// AddAttempt counts one plane tried by the supervisor. Nil-safe.
func (sp *Span) AddAttempt() {
	if sp != nil {
		sp.Attempts++
	}
}

// AddFailover counts one plane failure routed around. Nil-safe.
func (sp *Span) AddFailover() {
	if sp != nil {
		sp.Failovers++
	}
}

// SetPlane records the plane that served the request. Nil-safe.
func (sp *Span) SetPlane(i int) {
	if sp != nil {
		sp.Plane = int32(i)
	}
}

// MarkPlanHit records that the request replayed a cached route plan.
// Nil-safe.
func (sp *Span) MarkPlanHit() {
	if sp != nil {
		sp.PlanHit = true
	}
}

// SetPlanCompile records the cost of compiling this request's route plan
// (attributing compile time separately from replay time). Nil-safe.
func (sp *Span) SetPlanCompile(d time.Duration) {
	if sp != nil {
		sp.PlanCompile = d
	}
}

// AddHedge counts one hedge timer firing for this request. Nil-safe.
func (sp *Span) AddHedge() {
	if sp != nil {
		sp.Hedges++
	}
}

// SetClass records the request's QoS admission class. Nil-safe.
func (sp *Span) SetClass(class string) {
	if sp != nil {
		sp.Class = class
	}
}

// MarkPoisoned records a poison-quarantine rejection (ErrPoisoned).
// Nil-safe.
func (sp *Span) MarkPoisoned() {
	if sp != nil {
		sp.Poisoned = true
	}
}

// MarkShed records a shed decision (ErrOverloaded). Nil-safe.
func (sp *Span) MarkShed() {
	if sp != nil {
		sp.Shed = true
	}
}

// MarkClaimed records that the request's waiter routed it. Nil-safe.
func (sp *Span) MarkClaimed() {
	if sp != nil {
		sp.Claimed = true
	}
}

// Config tunes a Tracer.
type Config struct {
	// Capacity is the ring size, rounded up to a power of two; <= 0
	// selects 1024.
	Capacity int
	// SlowThreshold is the total latency above which a finished span is
	// also captured as a slow-request exemplar; <= 0 selects 1ms.
	SlowThreshold time.Duration
	// Exemplars bounds the slow-exemplar set; <= 0 selects 8.
	Exemplars int
}

// Tracer records finished spans into a bounded lock-free ring and keeps the
// slowest requests as exemplars. A nil *Tracer is the disabled tracer: every
// method no-ops and Start returns a nil span. Construct with New; all
// methods are safe for concurrent use.
//
// Publication ownership lives in the open-span registry: a span is published
// exactly once, by whoever removes it from the registry — the finishing
// worker (Finish) or a Close-path Flush — so a request completing while its
// engine shuts down cannot land in the ring twice.
type Tracer struct {
	slots []atomic.Pointer[Span]
	mask  uint64
	ids   atomic.Uint64 // span IDs, assigned at Start
	pub   atomic.Uint64 // ring cursor, advanced at publication

	slowThreshold time.Duration
	maxExemplars  int
	slowMu        sync.Mutex
	slow          []*Span

	// open tracks started-but-unfinished spans so Close paths can flush
	// them instead of dropping them.
	openMu sync.Mutex
	open   map[uint64]*Span
}

// PublishYield, when non-nil, is invoked between a span's completion and its
// publication into the ring — the preemption point the deterministic-
// schedule tests use to pin publication order. Production leaves it nil.
var PublishYield func()

// New builds a tracer. The zero Config selects a 1024-slot ring, a 1ms slow
// threshold, and 8 exemplars.
func New(cfg Config) *Tracer {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = 1024
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	threshold := cfg.SlowThreshold
	if threshold <= 0 {
		threshold = time.Millisecond
	}
	exemplars := cfg.Exemplars
	if exemplars <= 0 {
		exemplars = 8
	}
	return &Tracer{
		slots:         make([]atomic.Pointer[Span], size),
		mask:          uint64(size - 1),
		slowThreshold: threshold,
		maxExemplars:  exemplars,
		open:          make(map[uint64]*Span),
	}
}

// Capacity returns the ring size, 0 for the disabled tracer.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}

// Started returns the number of spans started; the difference from
// Published is the currently open set.
func (t *Tracer) Started() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Load()
}

// Published returns the number of spans published into the ring.
func (t *Tracer) Published() uint64 {
	if t == nil {
		return 0
	}
	return t.pub.Load()
}

// Start opens a span of the given kind. On the disabled (nil) tracer it
// returns nil, which every Span method and Finish accept.
func (t *Tracer) Start(kind Kind, start time.Time, words int) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{
		ID:    t.ids.Add(1),
		Kind:  kind,
		Start: start,
		Words: words,
		Plane: -1,
	}
	t.openMu.Lock()
	t.open[sp.ID] = sp
	t.openMu.Unlock()
	return sp
}

// claim removes the span from the open registry and reports whether the
// caller now owns its publication.
func (t *Tracer) claim(sp *Span) bool {
	t.openMu.Lock()
	_, ok := t.open[sp.ID]
	if ok {
		delete(t.open, sp.ID)
	}
	t.openMu.Unlock()
	return ok
}

// Finish completes the span with the request's outcome and publishes it
// into the ring. Nil-safe on both receiver and span; a span already flushed
// by a concurrent Close is left alone.
func (t *Tracer) Finish(sp *Span, err error) {
	if t == nil || sp == nil {
		return
	}
	if !t.claim(sp) {
		return
	}
	sp.Total = time.Since(sp.Start)
	if sp.Total < 0 {
		sp.Total = 0
	}
	sp.Service = sp.Total - sp.QueueWait
	if sp.Service < 0 {
		sp.Service = 0
	}
	if err != nil {
		sp.Err = err.Error()
	}
	if PublishYield != nil {
		PublishYield()
	}
	t.publish(sp)
}

// publish lands a completed span in the ring and, when slow enough, in the
// exemplar set.
func (t *Tracer) publish(sp *Span) {
	slot := t.pub.Add(1) - 1
	t.slots[slot&t.mask].Store(sp)
	if sp.Total >= t.slowThreshold {
		t.slowMu.Lock()
		t.slow = append(t.slow, sp)
		if len(t.slow) > t.maxExemplars {
			sort.Slice(t.slow, func(i, j int) bool { return t.slow[i].Total > t.slow[j].Total })
			t.slow = t.slow[:t.maxExemplars]
		}
		t.slowMu.Unlock()
	}
}

// Flush publishes every still-open span as aborted — the Close-path
// snapshot that keeps in-flight work from vanishing without a trace. A span
// finishing concurrently is published exactly once, by whichever side claims
// it first. Nil-safe and idempotent.
func (t *Tracer) Flush() {
	if t == nil {
		return
	}
	t.openMu.Lock()
	pending := make([]*Span, 0, len(t.open))
	for id, sp := range t.open {
		pending = append(pending, sp)
		delete(t.open, id)
	}
	t.openMu.Unlock()
	// Oldest first, so flushed spans keep admission order in the ring.
	sort.Slice(pending, func(i, j int) bool { return pending[i].ID < pending[j].ID })
	for _, sp := range pending {
		sp.Aborted = true
		sp.Total = time.Since(sp.Start)
		if sp.Total < 0 {
			sp.Total = 0
		}
		t.publish(sp)
	}
}

// Snapshot copies up to max recent spans out of the ring, newest first;
// max <= 0 means the whole ring. The disabled tracer returns nil.
func (t *Tracer) Snapshot(max int) []Span {
	if t == nil {
		return nil
	}
	published := t.pub.Load()
	n := uint64(len(t.slots))
	if published < n {
		n = published
	}
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	out := make([]Span, 0, n)
	for i := uint64(0); i < n; i++ {
		sp := t.slots[(published-1-i)&t.mask].Load()
		if sp == nil {
			continue
		}
		out = append(out, *sp)
	}
	return out
}

// Slowest copies the slow-request exemplars, slowest first.
func (t *Tracer) Slowest() []Span {
	if t == nil {
		return nil
	}
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	out := make([]Span, 0, len(t.slow))
	for _, sp := range t.slow {
		out = append(out, *sp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}
