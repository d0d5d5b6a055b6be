package bnbnet

// This file defines the uniform serving contract shared by every routing
// front in the package. Engine, Supervised and Cluster each grew their own
// accessor sets as the layers landed; Router names the common surface and
// Stats()/Publish() replace the scattered per-layer snapshot methods with
// one shape.

import "context"

// Router is the serving contract every routing front satisfies: Engine
// (one worker pool over one network), Supervised (K redundant planes
// behind one engine) and Cluster (S supervised shards behind one
// coordinator). Code that only submits batches and watches health can
// hold any of the three through this interface; the richer per-layer
// surfaces (Submit tickets, plane membership, shard membership) remain on
// the concrete types.
type Router interface {
	// Inputs returns the port count served.
	Inputs() int
	// RouteBatch routes the batch and reports per-request results; outs[i]
	// is nil exactly when errs[i] is non-nil.
	RouteBatch(batch [][]Word) (outs [][]Word, errs []error)
	// InFlight returns the number of admitted requests not yet completed.
	InFlight() int64
	// Stats returns a point-in-time health snapshot; only the fields that
	// apply to the layer are populated.
	Stats() Stats
	// Publish registers the live Stats under the given expvar name on
	// /debug/vars, erroring if the name is taken.
	Publish(name string) error
	// Drain stops admission (ErrDraining) and waits for in-flight work.
	Drain(ctx context.Context) error
	// Close shuts the front down; submitted work still settles.
	Close() error
}

var (
	_ Router = (*Engine)(nil)
	_ Router = (*Supervised)(nil)
	_ Router = (*Cluster)(nil)
)

// Stats is the uniform health snapshot of a routing front. Kind tells the
// layer apart; fields that do not apply to a layer are zero. Obtain with
// the Stats method of Engine, Supervised or Cluster, or live on
// /debug/vars via Publish.
type Stats struct {
	// Kind is "engine", "supervised" or "cluster".
	Kind string
	// Inputs is the served port count.
	Inputs int
	// Workers is the serving goroutine count (engine and supervised; zero
	// for a cluster, which has no workers: its shards route on the
	// caller's goroutine).
	Workers int
	// InFlight counts admitted, uncompleted requests.
	InFlight int64
	// Metrics is the attached sink's snapshot, nil without WithMetrics.
	Metrics *MetricsSnapshot
	// PlanCaches holds the live plan-cache counters: at most one entry for
	// an engine, one per plane for a supervised front, where PlanCaches[i]
	// belongs to Planes[i].
	PlanCaches []PlanCacheStats
	// Planes holds the per-plane serving and repair counters (supervised
	// only).
	Planes []PlaneStats
	// Shards holds the per-shard snapshots (cluster only).
	Shards []ShardStats
}

// ShardStats is one cluster shard's slice of the fabric's Stats.
type ShardStats struct {
	// Index is the shard's position in the current membership.
	Index int
	// Inputs is the shard's local port count.
	Inputs int
	// InFlight counts the routes currently on the shard's planes, summed
	// over its planes (a hedged route counts once per plane it runs on).
	InFlight int64
	// Planes holds the shard's per-plane counters.
	Planes []PlaneStats
	// PlanCaches holds the shard's per-plane plan-cache counters.
	PlanCaches []PlanCacheStats
}

// Stats implements Router; see Stats for the populated fields.
func (e *Engine) Stats() Stats {
	st := Stats{
		Kind:     "engine",
		Inputs:   e.Inputs(),
		Workers:  e.Workers(),
		InFlight: e.InFlight(),
	}
	if m := e.Metrics(); m != nil {
		snap := m.Snapshot()
		st.Metrics = &snap
	}
	if e.pc != nil {
		st.PlanCaches = []PlanCacheStats{e.pc.cache.Stats()}
	}
	return st
}

// Publish implements Router, registering the engine's live Stats under the
// given expvar name on /debug/vars. It returns an error if the name is
// taken (expvar itself would panic).
func (e *Engine) Publish(name string) error {
	return publishExpvar(name, func() any { return e.Stats() })
}

// Stats implements Router; see Stats for the populated fields.
func (s *Supervised) Stats() Stats {
	st := Stats{
		Kind:     "supervised",
		Inputs:   s.Inputs(),
		Workers:  s.Workers(),
		InFlight: s.InFlight(),
	}
	st.Planes, st.PlanCaches = s.planeStats()
	if m := s.Metrics(); m != nil {
		snap := m.Snapshot()
		st.Metrics = &snap
	}
	return st
}

// Stats implements Router; see Stats for the populated fields. Shard
// entries snapshot each shard of the current membership.
func (c *Cluster) Stats() Stats {
	f := c.fab.Load()
	st := Stats{
		Kind:     "cluster",
		Inputs:   f.co.Inputs(),
		InFlight: c.InFlight(),
		Shards:   make([]ShardStats, len(f.shards)),
	}
	if c.m != nil {
		snap := c.m.Snapshot()
		st.Metrics = &snap
	}
	for i, sh := range f.shards {
		shs := ShardStats{Index: i, Inputs: sh.sup.Inputs()}
		shs.Planes, shs.PlanCaches = sh.planeStats()
		for _, p := range shs.Planes {
			shs.InFlight += p.InFlight
		}
		st.Shards[i] = shs
	}
	return st
}

// Publish implements Router, registering the cluster's live Stats —
// including every shard's plane and plan-cache counters — under the given
// expvar name on /debug/vars. It returns an error if the name is taken
// (expvar itself would panic).
func (c *Cluster) Publish(name string) error {
	return publishExpvar(name, func() any { return c.Stats() })
}
