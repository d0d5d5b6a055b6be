package metrics

import (
	"fmt"
	"io"
	"strconv"
)

// promSeconds renders a duration in seconds the way Prometheus clients do:
// shortest float64 round-trip form (1e-06, 0.000131072, ...).
func promSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// WritePrometheus renders the metrics in the Prometheus text exposition
// format (version 0.0.4) under the given namespace prefix; an empty
// namespace selects "bnb". Counters map to _total counters, the plane census
// to gauges, and the latency histogram to a cumulative _bucket series with
// the quarter-octave microsecond bucket ceilings as le labels. Output order
// is fixed, so the exposition is golden-file testable.
func (m *Metrics) WritePrometheus(w io.Writer, ns string) error {
	if ns == "" {
		ns = "bnb"
	}
	if m == nil {
		m = &Metrics{}
	}
	counters := []struct {
		name, help string
		v          int64
	}{
		{"routes_total", "Successfully routed requests.", m.routes.Load()},
		{"errors_total", "Failed routing requests.", m.errors.Load()},
		{"words_switched_total", "Words moved by successful routes.", m.words.Load()},
		{"faults_injected_total", "Faults the injector applied to route passes.", m.faults.Load()},
		{"requeues_total", "Cells requeued by the degraded fabric.", m.requeues.Load()},
		{"timeouts_total", "Requests abandoned by deadline.", m.timeouts.Load()},
		{"failovers_total", "Planes drained and failed away from.", m.failovers.Load()},
		{"repairs_total", "Plane rebuilds.", m.repairs.Load()},
		{"readmits_total", "Quarantined planes readmitted after clean probes.", m.readmits.Load()},
		{"sheds_total", "Requests rejected at admission (overload).", m.sheds.Load()},
		{"plan_hits_total", "Requests replayed from a cached route plan.", m.planHits.Load()},
		{"plan_misses_total", "Plan-cache lookups that found no plan.", m.planMisses.Load()},
		{"plan_evictions_total", "Route plans evicted from the cache.", m.planEvictions.Load()},
		{"plan_compiles_total", "Route plans compiled.", m.planCompiles.Load()},
		{"drains_total", "Graceful engine drains.", m.drains.Load()},
		{"reconfigs_total", "Completed live reconfigurations.", m.reconfigs.Load()},
		{"planes_added_total", "Planes admitted to the serving set at runtime.", m.planesAdded.Load()},
		{"planes_removed_total", "Planes drained and detached at runtime.", m.planesRemoved.Load()},
		{"plan_warms_total", "Plans verified and pre-warmed into a fresh cache.", m.planWarms.Load()},
		{"hedges_total", "Hedge attempts fired after the hedge delay.", m.hedges.Load()},
		{"hedge_wins_total", "Requests won by a hedge attempt rather than the primary.", m.hedgeWins.Load()},
		{"slow_quarantines_total", "Planes quarantined for chronic slowness.", m.slowQuarantines.Load()},
		{"poison_marks_total", "Request fingerprints quarantined after failing on distinct planes.", m.poisonMarks.Load()},
		{"poisoned_rejects_total", "Requests rejected at admission as poisoned.", m.poisonedRejects.Load()},
		{"batch_dequeues_total", "Dequeues from the engine queue.", m.batchDequeues.Load()},
		{"batched_requests_total", "Requests carried by engine queue dequeues.", m.batchedRequests.Load()},
		{"worker_parks_total", "Engine worker park (blocking wait) cycles.", m.workerParks.Load()},
		{"claimed_requests_total", "Engine requests routed by their own waiter instead of a worker.", m.claims.Load()},
	}
	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s counter\n%s_%s %d\n",
			ns, c.name, c.help, ns, c.name, ns, c.name, c.v); err != nil {
			return err
		}
	}
	// Per-class admission counters, labeled by QoS class in priority order.
	if _, err := fmt.Fprintf(w, "# HELP %s_class_submitted_total Requests submitted per QoS admission class.\n# TYPE %s_class_submitted_total counter\n", ns, ns); err != nil {
		return err
	}
	for c := 0; c < NumClasses; c++ {
		if _, err := fmt.Fprintf(w, "%s_class_submitted_total{class=%q} %d\n", ns, ClassName(c), m.classSubmitted[c].Load()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# HELP %s_class_sheds_total Requests shed per QoS admission class.\n# TYPE %s_class_sheds_total counter\n", ns, ns); err != nil {
		return err
	}
	for c := 0; c < NumClasses; c++ {
		if _, err := fmt.Fprintf(w, "%s_class_sheds_total{class=%q} %d\n", ns, ClassName(c), m.classSheds[c].Load()); err != nil {
			return err
		}
	}
	gauges := []struct {
		name, help string
		v          int64
	}{
		{"planes_healthy", "Supervised planes currently serving live traffic.", m.planesHealthy.Load()},
		{"planes_suspect", "Supervised planes draining after a failure.", m.planesSuspect.Load()},
		{"planes_quarantined", "Supervised planes under repair.", m.planesQuarantined.Load()},
		{"planes_draining", "Planes draining their way out of the serving set.", m.planesDraining.Load()},
	}
	for _, g := range gauges {
		if _, err := fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s gauge\n%s_%s %d\n",
			ns, g.name, g.help, ns, g.name, ns, g.name, g.v); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# HELP %s_route_latency_max_seconds Slowest successful route observed.\n# TYPE %s_route_latency_max_seconds gauge\n%s_route_latency_max_seconds %s\n",
		ns, ns, ns, promSeconds(m.latMax.Load())); err != nil {
		return err
	}
	// Latency histogram: cumulative bucket counts under the quarter-octave
	// microsecond ceilings. Only successful routes are observed, so _count
	// tracks routes_total.
	if _, err := fmt.Fprintf(w, "# HELP %s_route_latency_seconds Latency of successful routes.\n# TYPE %s_route_latency_seconds histogram\n", ns, ns); err != nil {
		return err
	}
	cum := int64(0)
	for b := 0; b < histBuckets; b++ {
		cum += m.buckets[b].Load()
		if _, err := fmt.Fprintf(w, "%s_route_latency_seconds_bucket{le=\"%s\"} %d\n",
			ns, promSeconds(int64(bucketCeil(b))), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_route_latency_seconds_bucket{le=\"+Inf\"} %d\n", ns, cum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_route_latency_seconds_sum %s\n%s_route_latency_seconds_count %d\n",
		ns, promSeconds(m.latSum.Load()), ns, cum)
	return err
}
