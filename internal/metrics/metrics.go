// Package metrics is the observability surface of the serving layer: cheap
// atomic counters and a lock-free latency histogram that routing paths can
// update from many goroutines without coordination, plus percentile
// snapshots and optional expvar publication for live inspection of long
// runs. One Metrics instance is shared by everything that serves a given
// network — the engine's workers, the fabric switch's cycle loop — so a
// snapshot is a whole-system view.
package metrics

import (
	"expvar"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// The latency histogram is quarter-octave: buckets 0–2 hold observations
// under 1µs, [1, 2)µs and [2, 4)µs, and every further octave [2^{k-1},
// 2^k)µs for k in [3, 45] is split into four equal sub-buckets. Pure
// power-of-two octaves quantize percentiles to exact doublings (a bench once
// reported p50/p99 of exactly 64µs/128µs/2048µs), hiding any sub-2× change;
// the quarter-octave split plus interpolation in percentile resolves ~6%
// steps while keeping bucketOf a shift and a subtract.
const (
	histOctaves = 46
	subBuckets  = 4
	// firstSplit is the first octave fine enough to split: below 4µs a
	// quarter-octave would be under a microsecond wide.
	firstSplit  = 3
	histBuckets = firstSplit + (histOctaves-firstSplit)*subBuckets
)

// Metrics aggregates routing activity. The zero value is ready to use; all
// methods are safe for concurrent use. Use one instance per serving surface
// (engine, fabric switch) or share one across several to aggregate them.
type Metrics struct {
	routes  atomic.Int64
	errors  atomic.Int64
	words   atomic.Int64
	latSum  atomic.Int64 // nanoseconds
	latMax  atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64

	// Fault-tolerance counters: injected faults, cells the degraded fabric
	// requeued, and requests abandoned by deadline, fed by the fault
	// injector, the degraded fabric, and the engine.
	faults   atomic.Int64
	requeues atomic.Int64
	timeouts atomic.Int64

	// Supervision counters and gauges, fed by the plane supervisor and the
	// engine's admission control: failovers away from a failing plane,
	// repairs (plane rebuilds), readmissions after a clean probe pass,
	// requests shed at admission, and the current plane-state census.
	failovers         atomic.Int64
	repairs           atomic.Int64
	readmits          atomic.Int64
	sheds             atomic.Int64
	planesHealthy     atomic.Int64
	planesSuspect     atomic.Int64
	planesQuarantined atomic.Int64
	planesDraining    atomic.Int64

	// Live-reconfiguration counters, fed by the drain lifecycle and the
	// supervisor's membership operations: engine drains, completed
	// reconfigurations, planes added to and removed from the serving set,
	// and plans pre-warmed into a fresh cache during a rollout.
	drains        atomic.Int64
	reconfigs     atomic.Int64
	planesAdded   atomic.Int64
	planesRemoved atomic.Int64
	planWarms     atomic.Int64

	// Plan-cache counters, fed by the compiled-plan fast path: cache hits
	// replayed without re-running the arbiter tree, misses that compiled a
	// fresh plan, plans evicted to make room, and the compiles themselves
	// with their accumulated cost.
	planHits      atomic.Int64
	planMisses    atomic.Int64
	planEvictions atomic.Int64
	planCompiles  atomic.Int64
	planCompileNs atomic.Int64

	// Tail-tolerance counters, fed by the supervisor's hedged routing,
	// slow-plane detection and poison quarantine, and by the engine's
	// per-class admission: hedge timers fired, hedged attempts that won the
	// race, planes quarantined for chronic slowness, request fingerprints
	// condemned, poisoned requests rejected at admission, and per-QoS-class
	// submission and shed counts (index 0 = background, 1 = standard,
	// 2 = critical).
	hedges          atomic.Int64
	hedgeWins       atomic.Int64
	slowQuarantines atomic.Int64
	poisonMarks     atomic.Int64
	poisonedRejects atomic.Int64
	classSubmitted  [NumClasses]atomic.Int64
	classSheds      [NumClasses]atomic.Int64

	// Engine queue counters: dequeues and the requests they carried, worker
	// park (blocking wait) cycles, and requests their waiters claimed.
	batchDequeues   atomic.Int64
	batchedRequests atomic.Int64
	workerParks     atomic.Int64
	claims          atomic.Int64
}

// NumClasses is the number of QoS admission classes the engine serves.
const NumClasses = 3

// ClassName names a QoS class index for exposition, in shed order: the
// engine sheds background before standard before critical.
func ClassName(class int) string {
	switch class {
	case 0:
		return "background"
	case 1:
		return "standard"
	case 2:
		return "critical"
	default:
		return fmt.Sprintf("class%d", class)
	}
}

// bucketOf maps a latency to its histogram bucket.
func bucketOf(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	k := bits.Len64(us) // 0 for <1µs, k for [2^{k-1}, 2^k) µs
	if k < firstSplit {
		return k
	}
	if k >= histOctaves {
		return histBuckets - 1
	}
	// Quarter-octave: j indexes the sub-bucket inside octave k, each
	// 2^{k-3}µs wide.
	j := int((us - 1<<(k-1)) >> (k - firstSplit))
	return firstSplit + (k-firstSplit)*subBuckets + j
}

// bucketCeil returns the inclusive upper bound of bucket b.
func bucketCeil(b int) time.Duration {
	if b < firstSplit {
		return time.Duration(uint64(1)<<uint(b)) * time.Microsecond
	}
	k := firstSplit + (b-firstSplit)/subBuckets
	j := (b - firstSplit) % subBuckets
	lo := uint64(1) << uint(k-1) // octave floor in µs
	return time.Duration(lo+uint64(j+1)*(lo/subBuckets)) * time.Microsecond
}

// ObserveRoute records one routing request: the number of words it moved,
// its latency, and whether it failed. Failed requests count toward Errors
// but not toward Routes or WordsSwitched, mirroring the delivery contract:
// a failed route switched nothing.
func (m *Metrics) ObserveRoute(words int, d time.Duration, err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.errors.Add(1)
		return
	}
	m.routes.Add(1)
	m.words.Add(int64(words))
	// Clamp a negative latency (a clock step between the two readings) to
	// zero everywhere, histogram included: bucketing the raw duration would
	// convert it to a huge uint64 and land it in the top bucket, wrecking
	// the percentile snapshots.
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	m.latSum.Add(ns)
	for {
		old := m.latMax.Load()
		if ns <= old || m.latMax.CompareAndSwap(old, ns) {
			break
		}
	}
	m.buckets[bucketOf(time.Duration(ns))].Add(1)
}

// AddFaults counts n injected faults perturbing route passes.
func (m *Metrics) AddFaults(n int64) {
	if m != nil {
		m.faults.Add(n)
	}
}

// AddRequeues counts n cells requeued by the degraded fabric after a failed
// or misdelivered pass.
func (m *Metrics) AddRequeues(n int64) {
	if m != nil {
		m.requeues.Add(n)
	}
}

// AddTimeout counts one request abandoned by deadline.
func (m *Metrics) AddTimeout() {
	if m != nil {
		m.timeouts.Add(1)
	}
}

// AddFailover counts one plane drained and failed away from after its first
// misroute or probe failure.
func (m *Metrics) AddFailover() {
	if m != nil {
		m.failovers.Add(1)
	}
}

// AddRepair counts one plane rebuilt from its constructor.
func (m *Metrics) AddRepair() {
	if m != nil {
		m.repairs.Add(1)
	}
}

// AddReadmit counts one quarantined plane readmitted to service after a
// clean full probe pass.
func (m *Metrics) AddReadmit() {
	if m != nil {
		m.readmits.Add(1)
	}
}

// AddShed counts one request rejected at admission (ErrOverloaded).
func (m *Metrics) AddShed() {
	if m != nil {
		m.sheds.Add(1)
	}
}

// AddPlanHit counts one request served by replaying a cached plan.
func (m *Metrics) AddPlanHit() {
	if m != nil {
		m.planHits.Add(1)
	}
}

// AddPlanMiss counts one request whose permutation had no cached plan.
func (m *Metrics) AddPlanMiss() {
	if m != nil {
		m.planMisses.Add(1)
	}
}

// AddPlanEviction counts one plan evicted from the cache to make room.
func (m *Metrics) AddPlanEviction() {
	if m != nil {
		m.planEvictions.Add(1)
	}
}

// AddPlanCompile counts one plan compilation and its cost — the price the
// amortization model in DESIGN.md §12 weighs against the saved route time.
func (m *Metrics) AddPlanCompile(d time.Duration) {
	if m == nil {
		return
	}
	m.planCompiles.Add(1)
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	m.planCompileNs.Add(ns)
}

// AddHedge counts one hedge timer firing — a request re-issued on a second
// plane because the first response was late.
func (m *Metrics) AddHedge() {
	if m != nil {
		m.hedges.Add(1)
	}
}

// AddHedgeWin counts one request whose hedged attempt beat the primary.
func (m *Metrics) AddHedgeWin() {
	if m != nil {
		m.hedgeWins.Add(1)
	}
}

// AddSlowQuarantine counts one plane drained for chronic slowness (as
// opposed to misrouting).
func (m *Metrics) AddSlowQuarantine() {
	if m != nil {
		m.slowQuarantines.Add(1)
	}
}

// AddPoisonMark counts one request fingerprint condemned by the poison
// quarantine after hard failures on distinct planes.
func (m *Metrics) AddPoisonMark() {
	if m != nil {
		m.poisonMarks.Add(1)
	}
}

// AddPoisonedReject counts one request rejected with ErrPoisoned at
// admission.
func (m *Metrics) AddPoisonedReject() {
	if m != nil {
		m.poisonedRejects.Add(1)
	}
}

// AddClassSubmitted counts one request admitted under the given QoS class
// (0 = background, 1 = standard, 2 = critical).
func (m *Metrics) AddClassSubmitted(class int) {
	if m != nil && class >= 0 && class < NumClasses {
		m.classSubmitted[class].Add(1)
	}
}

// AddClassShed counts one request of the given QoS class shed at admission.
func (m *Metrics) AddClassShed(class int) {
	if m != nil && class >= 0 && class < NumClasses {
		m.classSheds[class].Add(1)
	}
}

// AddBatchDequeue counts one dequeue that took n requests off the engine
// queue in a single queue operation.
func (m *Metrics) AddBatchDequeue(n int64) {
	if m != nil {
		m.batchDequeues.Add(1)
		m.batchedRequests.Add(n)
	}
}

// AddPark counts one worker park — a blocking wait for a wakeup signal.
func (m *Metrics) AddPark() {
	if m != nil {
		m.workerParks.Add(1)
	}
}

// AddClaim counts one request taken off the engine queue and routed by the
// caller waiting on it instead of a worker.
func (m *Metrics) AddClaim() {
	if m != nil {
		m.claims.Add(1)
	}
}

// AddDrain counts one graceful engine drain (Drain, not an abrupt Close).
func (m *Metrics) AddDrain() {
	if m != nil {
		m.drains.Add(1)
	}
}

// AddReconfig counts one completed live reconfiguration (Reconfigure).
func (m *Metrics) AddReconfig() {
	if m != nil {
		m.reconfigs.Add(1)
	}
}

// AddPlaneAdded counts one plane admitted to the serving set at runtime.
func (m *Metrics) AddPlaneAdded() {
	if m != nil {
		m.planesAdded.Add(1)
	}
}

// AddPlaneRemoved counts one plane drained and detached from the serving
// set at runtime.
func (m *Metrics) AddPlaneRemoved() {
	if m != nil {
		m.planesRemoved.Add(1)
	}
}

// AddPlanWarm counts one hot plan verified through ReplayWired and carried
// into a fresh plan cache during a rollout.
func (m *Metrics) AddPlanWarm() {
	if m != nil {
		m.planWarms.Add(1)
	}
}

// SetPlaneStates publishes the supervisor's current plane-state census as
// gauges; the supervisor calls it after every state transition. Draining
// planes are on their way out; detached planes have left the set and are
// not counted.
func (m *Metrics) SetPlaneStates(healthy, suspect, quarantined, draining int64) {
	if m == nil {
		return
	}
	m.planesHealthy.Store(healthy)
	m.planesSuspect.Store(suspect)
	m.planesQuarantined.Store(quarantined)
	m.planesDraining.Store(draining)
}

// Snapshot is a point-in-time copy of the counters with derived percentile
// estimates. Percentiles interpolate inside quarter-octave microsecond
// buckets, so they are accurate to within ~12% — fine enough to resolve a
// sub-2× latency change, still a histogram estimate, not a sorted sample.
type Snapshot struct {
	// Routes is the number of successfully routed requests.
	Routes int64
	// Errors is the number of failed requests.
	Errors int64
	// WordsSwitched is the total number of words moved by successful routes.
	WordsSwitched int64
	// MeanLatency is the average latency of successful routes.
	MeanLatency time.Duration
	// P50, P90, P99 are conservative latency percentile estimates.
	P50, P90, P99 time.Duration
	// MaxLatency is the slowest successful route observed.
	MaxLatency time.Duration

	// FaultsInjected counts faults the injector applied to route passes.
	FaultsInjected int64
	// Requeued counts cells the degraded fabric returned to their input
	// queues after a failed or misdelivered pass.
	Requeued int64
	// Timeouts counts requests abandoned by deadline.
	Timeouts int64

	// Failovers counts planes drained and failed away from.
	Failovers int64
	// Repairs counts plane rebuilds.
	Repairs int64
	// Readmits counts quarantined planes readmitted after clean probes.
	Readmits int64
	// Sheds counts requests rejected at admission (ErrOverloaded).
	Sheds int64
	// PlanesHealthy, PlanesSuspect and PlanesQuarantined are the current
	// plane-state gauges of the supervisor, zero without one.
	PlanesHealthy, PlanesSuspect, PlanesQuarantined int64
	// PlanesDraining is the census of planes leaving the serving set during
	// live membership changes.
	PlanesDraining int64

	// Drains counts graceful engine drains; Reconfigs completed live
	// reconfigurations; PlanesAdded and PlanesRemoved runtime membership
	// changes; PlanWarms plans verified and carried into a fresh cache
	// during a rollout.
	Drains, Reconfigs, PlanesAdded, PlanesRemoved, PlanWarms int64

	// PlanHits counts requests replayed from a cached plan; PlanMisses
	// counts requests that found no plan; PlanEvictions counts plans evicted
	// for room; PlanCompiles counts compilations and MeanPlanCompile their
	// average cost.
	PlanHits, PlanMisses, PlanEvictions, PlanCompiles int64
	MeanPlanCompile                                   time.Duration

	// Hedges counts hedge timers fired; HedgeWins hedged attempts that won
	// the race; SlowQuarantines planes drained for chronic slowness;
	// PoisonMarks request fingerprints condemned by the poison quarantine;
	// PoisonedRejects requests refused with ErrPoisoned at admission.
	Hedges, HedgeWins, SlowQuarantines, PoisonMarks, PoisonedRejects int64
	// ClassSubmitted and ClassSheds are the per-QoS-class admission and
	// shed counts, indexed background (0), standard (1), critical (2).
	ClassSubmitted, ClassSheds [NumClasses]int64

	// BatchDequeues counts engine queue dequeues and BatchedRequests the
	// requests they carried (one each: a worker takes one request per
	// dequeue); WorkerParks counts worker blocking waits. Steals and
	// StolenRequests always read 0: the engine has one queue, so no worker
	// takes another's work. They stay so that readers of the former
	// per-worker queues' counters keep building.
	BatchDequeues, BatchedRequests, Steals, StolenRequests, WorkerParks int64
	// Claims counts the dequeues that a request's own waiter made and
	// routed, instead of a worker (a subset of BatchDequeues).
	Claims int64
}

// MeanBatch returns BatchedRequests/BatchDequeues — the average number of
// requests one dequeue served — or 0 before any dequeue.
func (s Snapshot) MeanBatch() float64 {
	if s.BatchDequeues == 0 {
		return 0
	}
	return float64(s.BatchedRequests) / float64(s.BatchDequeues)
}

// PlanHitRatio returns PlanHits/(PlanHits+PlanMisses), 0 before any
// plan-cache lookup.
func (s Snapshot) PlanHitRatio() float64 {
	total := s.PlanHits + s.PlanMisses
	if total == 0 {
		return 0
	}
	return float64(s.PlanHits) / float64(total)
}

// Snapshot returns a consistent-enough copy of the counters: each value is
// read atomically, though concurrent updates may land between reads.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Routes:         m.routes.Load(),
		Errors:         m.errors.Load(),
		WordsSwitched:  m.words.Load(),
		MaxLatency:     time.Duration(m.latMax.Load()),
		FaultsInjected: m.faults.Load(),
		Requeued:       m.requeues.Load(),
		Timeouts:       m.timeouts.Load(),

		Failovers:         m.failovers.Load(),
		Repairs:           m.repairs.Load(),
		Readmits:          m.readmits.Load(),
		Sheds:             m.sheds.Load(),
		PlanesHealthy:     m.planesHealthy.Load(),
		PlanesSuspect:     m.planesSuspect.Load(),
		PlanesQuarantined: m.planesQuarantined.Load(),
		PlanesDraining:    m.planesDraining.Load(),

		Drains:        m.drains.Load(),
		Reconfigs:     m.reconfigs.Load(),
		PlanesAdded:   m.planesAdded.Load(),
		PlanesRemoved: m.planesRemoved.Load(),
		PlanWarms:     m.planWarms.Load(),

		PlanHits:      m.planHits.Load(),
		PlanMisses:    m.planMisses.Load(),
		PlanEvictions: m.planEvictions.Load(),
		PlanCompiles:  m.planCompiles.Load(),

		Hedges:          m.hedges.Load(),
		HedgeWins:       m.hedgeWins.Load(),
		SlowQuarantines: m.slowQuarantines.Load(),
		PoisonMarks:     m.poisonMarks.Load(),
		PoisonedRejects: m.poisonedRejects.Load(),

		BatchDequeues:   m.batchDequeues.Load(),
		BatchedRequests: m.batchedRequests.Load(),
		WorkerParks:     m.workerParks.Load(),
		Claims:          m.claims.Load(),
	}
	for c := 0; c < NumClasses; c++ {
		s.ClassSubmitted[c] = m.classSubmitted[c].Load()
		s.ClassSheds[c] = m.classSheds[c].Load()
	}
	if s.PlanCompiles > 0 {
		s.MeanPlanCompile = time.Duration(m.planCompileNs.Load() / s.PlanCompiles)
	}
	if s.Routes > 0 {
		s.MeanLatency = time.Duration(m.latSum.Load() / s.Routes)
	}
	var counts [histBuckets]int64
	total := int64(0)
	for b := range counts {
		counts[b] = m.buckets[b].Load()
		total += counts[b]
	}
	s.P50 = percentile(counts[:], total, 0.50)
	s.P90 = percentile(counts[:], total, 0.90)
	s.P99 = percentile(counts[:], total, 0.99)
	return s
}

// percentile locates the bucket holding the p-quantile observation and
// interpolates linearly inside it, assuming observations spread uniformly
// across the bucket. The estimate stays within the bucket's bounds — at most
// a quarter octave (~12%) from the true value — instead of snapping to the
// power-of-two ceiling.
func percentile(counts []int64, total int64, p float64) time.Duration {
	if total == 0 {
		return 0
	}
	need := int64(p * float64(total))
	if need < 1 {
		need = 1
	}
	acc := int64(0)
	for b, c := range counts {
		if c == 0 {
			continue
		}
		if acc+c >= need {
			var lo time.Duration
			if b > 0 {
				lo = bucketCeil(b - 1)
			}
			hi := bucketCeil(b)
			frac := float64(need-acc) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		acc += c
	}
	return bucketCeil(len(counts) - 1)
}

// String formats the snapshot as a single human-readable line; the
// fault-tolerance counters appear only when any of them is non-zero, so
// healthy runs keep the familiar compact form.
func (s Snapshot) String() string {
	line := fmt.Sprintf("routes=%d errors=%d words=%d mean=%v p50=%v p99=%v max=%v",
		s.Routes, s.Errors, s.WordsSwitched, s.MeanLatency, s.P50, s.P99, s.MaxLatency)
	if s.FaultsInjected != 0 || s.Requeued != 0 || s.Timeouts != 0 {
		line += fmt.Sprintf(" faults=%d requeued=%d timeouts=%d",
			s.FaultsInjected, s.Requeued, s.Timeouts)
	}
	if s.Failovers != 0 || s.Repairs != 0 || s.Readmits != 0 || s.Sheds != 0 ||
		s.PlanesHealthy != 0 || s.PlanesSuspect != 0 || s.PlanesQuarantined != 0 {
		line += fmt.Sprintf(" failovers=%d repairs=%d readmits=%d sheds=%d planes=%d/%d/%d",
			s.Failovers, s.Repairs, s.Readmits, s.Sheds,
			s.PlanesHealthy, s.PlanesSuspect, s.PlanesQuarantined)
	}
	if s.PlanHits != 0 || s.PlanMisses != 0 || s.PlanEvictions != 0 || s.PlanCompiles != 0 {
		line += fmt.Sprintf(" plan_hits=%d plan_misses=%d plan_evictions=%d plan_compiles=%d plan_hit_ratio=%.2f",
			s.PlanHits, s.PlanMisses, s.PlanEvictions, s.PlanCompiles, s.PlanHitRatio())
	}
	if s.Drains != 0 || s.Reconfigs != 0 || s.PlanesAdded != 0 || s.PlanesRemoved != 0 ||
		s.PlanWarms != 0 || s.PlanesDraining != 0 {
		line += fmt.Sprintf(" drains=%d reconfigs=%d planes_added=%d planes_removed=%d plan_warms=%d draining=%d",
			s.Drains, s.Reconfigs, s.PlanesAdded, s.PlanesRemoved, s.PlanWarms,
			s.PlanesDraining)
	}
	if s.Hedges != 0 || s.HedgeWins != 0 || s.SlowQuarantines != 0 ||
		s.PoisonMarks != 0 || s.PoisonedRejects != 0 {
		line += fmt.Sprintf(" hedges=%d hedge_wins=%d slow_quarantines=%d poison_marks=%d poisoned_rejects=%d",
			s.Hedges, s.HedgeWins, s.SlowQuarantines, s.PoisonMarks, s.PoisonedRejects)
	}
	var classActive bool
	for c := 0; c < NumClasses; c++ {
		if s.ClassSubmitted[c] != 0 || s.ClassSheds[c] != 0 {
			classActive = true
		}
	}
	if classActive {
		line += fmt.Sprintf(" class_submitted=%d/%d/%d class_sheds=%d/%d/%d",
			s.ClassSubmitted[0], s.ClassSubmitted[1], s.ClassSubmitted[2],
			s.ClassSheds[0], s.ClassSheds[1], s.ClassSheds[2])
	}
	if s.BatchDequeues != 0 || s.WorkerParks != 0 {
		line += fmt.Sprintf(" batches=%d batched=%d mean_batch=%.1f parks=%d claims=%d",
			s.BatchDequeues, s.BatchedRequests, s.MeanBatch(), s.WorkerParks, s.Claims)
	}
	return line
}

// Publish registers the metrics under the given expvar name, exposing live
// snapshots on the standard /debug/vars surface. It returns an error if the
// name is already taken (expvar itself would panic).
func (m *Metrics) Publish(name string) error {
	if expvar.Get(name) != nil {
		return fmt.Errorf("metrics: expvar name %q already published", name)
	}
	expvar.Publish(name, expvar.Func(func() any { return m.Snapshot() }))
	return nil
}
