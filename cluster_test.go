package bnbnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/check"
)

// TestClusterDifferential is the correctness acceptance: the cluster must
// be word-for-word indistinguishable from the monolithic network across
// the full sweep battery, including exhaustive N! enumeration at N = 8.
func TestClusterDifferential(t *testing.T) {
	opts := CheckOptions{RandomTrials: 50, AdversarialClimbs: 1}
	for _, tc := range []struct{ shards, shardOrder int }{
		{2, 2}, // N = 8: exhaustive battery
		{4, 1}, // N = 8 from 2-port shards: exhaustive, maximal inter-shard traffic
		{4, 3}, // N = 32: structured + random battery
	} {
		report, err := VerifyCluster("bnb", tc.shards, tc.shardOrder, opts)
		if err != nil {
			t.Fatalf("VerifyCluster(%d shards, order %d): %v", tc.shards, tc.shardOrder, err)
		}
		if !report.OK() {
			t.Fatalf("VerifyCluster(%d shards, order %d): %d failures: %v",
				tc.shards, tc.shardOrder, len(report.Failures), report.Failures)
		}
		if report.Checked == 0 {
			t.Fatalf("VerifyCluster(%d shards, order %d): battery checked nothing", tc.shards, tc.shardOrder)
		}
	}
}

func TestVerifyClusterRejectsNonPowerShards(t *testing.T) {
	if _, err := VerifyCluster("bnb", 3, 2, CheckOptions{}); err == nil {
		t.Fatal("VerifyCluster accepted a non-power-of-two shard count")
	}
}

// TestClusterSurfaces checks that the cluster offers the same optional
// surfaces as the monolithic networks through the standard discovery
// helpers, and that compiled plans are bound to their router kind.
func TestClusterSurfaces(t *testing.T) {
	c, err := NewCluster("bnb", 3, WithShards(4))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	var n Network = c
	if _, ok := AsBulkRouter(n); !ok {
		t.Fatal("cluster does not offer BulkRouter")
	}
	if _, ok := AsTracedRouter(n); !ok {
		t.Fatal("cluster does not offer TracedRouter")
	}
	pr, ok := AsPlanRouter(n)
	if !ok {
		t.Fatal("cluster does not offer PlanRouter")
	}

	size := c.Inputs()
	if size != 4*8 {
		t.Fatalf("Inputs = %d, want 32", size)
	}
	rng := rand.New(rand.NewSource(1))
	p := RandomPerm(size, rng)
	pl, err := pr.Compile(p)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if pl.Inputs() != size || pl.M() != 3 {
		t.Fatalf("plan shape: Inputs=%d M=%d, want %d/3", pl.Inputs(), pl.M(), size)
	}
	if got := pl.Perm(); len(got) != size || got[0] != p[0] {
		t.Fatalf("plan perm does not echo the compiled permutation")
	}
	if pl.Switches() == 0 {
		t.Fatal("cluster plan reports zero switches")
	}
	src := make([]Word, size)
	dst := make([]Word, size)
	for i := range src {
		src[i] = Word{Addr: p[i], Data: uint64(i)}
	}
	for rep := 0; rep < 2; rep++ {
		if err := pr.Replay(pl, dst, src); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		for i, d := range p {
			if dst[d].Addr != d || dst[d].Data != uint64(i) {
				t.Fatalf("replay %d: dst[%d] = %+v, want {%d %d}", rep, d, dst[d], d, i)
			}
		}
	}

	// Cross-kind replays fail cleanly instead of misdelivering.
	bnb, err := NewBNB(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	monoPlan, err := bnb.Compile(RandomPerm(8, rng))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Replay(monoPlan, dst, src); !errors.Is(err, ErrPlanMismatch) {
		t.Fatalf("cluster replay of a BNB plan: got %v, want ErrPlanMismatch", err)
	}
	smallDst := make([]Word, 8)
	if err := bnb.Replay(pl, smallDst, smallDst); !errors.Is(err, ErrPlanMismatch) {
		t.Fatalf("BNB replay of a cluster plan: got %v, want ErrPlanMismatch", err)
	}

	// Trace snapshots: 4 stages, each a conservation of the input words.
	out, snaps, err := c.RouteTraced(src)
	if err != nil {
		t.Fatalf("RouteTraced: %v", err)
	}
	if len(snaps) != 4 {
		t.Fatalf("RouteTraced returned %d snapshots, want 4", len(snaps))
	}
	for si, snap := range snaps {
		seen := make(map[Word]int, size)
		for _, w := range src {
			seen[w]++
		}
		for _, w := range snap {
			seen[Word{Addr: w.Addr, Data: w.Data}]--
		}
		// Output snapshot words carry their delivery address, not the
		// source address — skip conservation there (it is checked below).
		if si == 3 {
			continue
		}
		for w, n := range seen {
			if n != 0 {
				t.Fatalf("snapshot %d does not conserve word %+v (delta %d)", si, w, n)
			}
		}
	}
	for i, d := range p {
		if out[d].Data != uint64(i) {
			t.Fatalf("traced route misdelivered element %d", i)
		}
	}

	// Cost and delay aggregate the shard figures plus the exchange stages.
	cost := c.Cost()
	if cost.Switches == 0 || cost.Crosspoints != 2*8*4*4 {
		t.Fatalf("cluster cost = %+v, want 4 shard fabrics + %d crosspoints", cost, 2*8*4*4)
	}
	shardDelay := bnb.Delay()
	if d := c.Delay(); d.SwitchUnits != shardDelay.SwitchUnits+2 {
		t.Fatalf("cluster delay = %+v, want shard delay + 2 exchange stages", d)
	}
}

// TestClusterRouterContract drives Engine, Supervised and Cluster through
// the uniform Router interface.
func TestClusterRouterContract(t *testing.T) {
	n, err := New("bnb", 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(n, WithMetrics(NewMetrics()))
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervised("bnb", 3)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster("bnb", 3, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for _, r := range []Router{eng, sup, cl} {
		size := r.Inputs()
		batch := make([][]Word, 3)
		perms := make([]Perm, len(batch))
		for i := range batch {
			perms[i] = RandomPerm(size, rng)
			batch[i] = make([]Word, size)
			for j, d := range perms[i] {
				batch[i][j] = Word{Addr: d, Data: uint64(j)}
			}
		}
		outs, errs := r.RouteBatch(batch)
		for i := range batch {
			if errs[i] != nil {
				t.Fatalf("%T RouteBatch[%d]: %v", r, i, errs[i])
			}
			for j, d := range perms[i] {
				if outs[i][d].Data != uint64(j) {
					t.Fatalf("%T RouteBatch[%d]: misdelivered element %d", r, i, j)
				}
			}
		}
		st := r.Stats()
		if st.Kind == "" || st.Inputs != size {
			t.Fatalf("%T Stats = %+v: missing kind or inputs", r, st)
		}
		if r.InFlight() != 0 {
			t.Fatalf("%T InFlight = %d after settled batch", r, r.InFlight())
		}
		if err := r.Drain(context.Background()); err != nil {
			t.Fatalf("%T Drain: %v", r, err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("%T Close after drain: %v", r, err)
		}
	}
	if st := eng.Stats(); st.Kind != "engine" || st.Metrics == nil {
		t.Fatalf("engine stats = %+v, want kind engine with metrics", st)
	}
	if st := sup.Stats(); st.Kind != "supervised" || len(st.Planes) != 2 || len(st.PlanCaches) != 2 {
		t.Fatalf("supervised stats = %+v, want 2 planes with plan caches", st)
	}
	if st := cl.Stats(); st.Kind != "cluster" || len(st.Shards) != 2 || len(st.Shards[1].Planes) != 2 {
		t.Fatalf("cluster stats = %+v, want 2 shards of 2 planes", st)
	}
	if err := cl.Publish("test-cluster-stats"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if err := cl.Publish("test-cluster-stats"); err == nil {
		t.Fatal("Publish accepted a duplicate expvar name")
	}
}

// TestClusterMembership exercises live shard add and drain under
// concurrent traffic: every request either delivers word-for-word
// correctly or fails with a clean admission error; nothing is lost or
// misrouted across the membership changes.
func TestClusterMembership(t *testing.T) {
	c, err := NewCluster("bnb", 3, WithShards(2))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()

	var stop atomic.Bool
	var routed, rejected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				size := c.Inputs()
				p := RandomPerm(size, rng)
				src := make([]Word, size)
				for i, d := range p {
					src[i] = Word{Addr: d, Data: uint64(i)}
				}
				dst := make([]Word, size)
				err := c.RouteInto(dst, src)
				if err != nil {
					// The only acceptable failure is a membership change
					// between reading Inputs and routing.
					if errors.Is(err, ErrBadSize) {
						rejected.Add(1)
						continue
					}
					t.Errorf("RouteInto: %v", err)
					return
				}
				for i, d := range p {
					if dst[d].Addr != d || dst[d].Data != uint64(i) {
						t.Errorf("misrouted: dst[%d] = %+v, want {%d %d}", d, dst[d], d, i)
						return
					}
				}
				routed.Add(1)
			}
		}(int64(g))
	}

	deadline := time.Now().Add(10 * time.Second)
	for cycle := 0; cycle < 3 && time.Now().Before(deadline); cycle++ {
		time.Sleep(20 * time.Millisecond)
		got, err := c.AddShard(context.Background())
		if err != nil {
			t.Fatalf("AddShard: %v", err)
		}
		if got != 3 {
			t.Fatalf("AddShard reported %d shards, want 3", got)
		}
		if c.Inputs() != 3*8 {
			t.Fatalf("Inputs = %d after add, want 24", c.Inputs())
		}
		time.Sleep(20 * time.Millisecond)
		if got, err = c.RemoveShard(context.Background()); err != nil {
			t.Fatalf("RemoveShard: %v", err)
		}
		if got != 2 {
			t.Fatalf("RemoveShard reported %d shards, want 2", got)
		}
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	if routed.Load() == 0 {
		t.Fatal("no request completed during the membership churn")
	}
	if c.ShardsAdded() != 3 || c.ShardsRemoved() != 3 {
		t.Fatalf("membership counters = %d added / %d removed, want 3/3", c.ShardsAdded(), c.ShardsRemoved())
	}
	t.Logf("membership churn: %d routed, %d resized-rejected", routed.Load(), rejected.Load())
}

func TestClusterLifecycle(t *testing.T) {
	c, err := NewCluster("bnb", 3, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	size := c.Inputs()
	buf := make([]Word, size)
	for i := range buf {
		buf[i] = Word{Addr: i}
	}
	if err := c.RouteInto(buf, buf); !errors.Is(err, ErrDraining) {
		t.Fatalf("route after drain: got %v, want ErrDraining", err)
	}
	if _, err := c.AddShard(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("AddShard after drain: got %v, want ErrDraining", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close after drain: %v", err)
	}
	if err := c.RouteInto(buf, buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("route after close: got %v, want ErrClosed", err)
	}

	// Close without a drain reports ErrClosed on the second call, like the
	// engine lifecycle.
	c2, err := NewCluster("bnb", 3)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Shards() != 2 {
		t.Fatalf("default shard count = %d, want 2", c2.Shards())
	}
	if err := c2.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := c2.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close: got %v, want ErrClosed", err)
	}
	if _, err := c2.RemoveShard(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("RemoveShard after close: got %v, want ErrClosed", err)
	}
}

func TestClusterOptionRejections(t *testing.T) {
	if _, err := New("bnb", 3, WithShards(2)); err == nil {
		t.Fatal("New accepted WithShards")
	}
	n, _ := New("bnb", 3)
	if _, err := NewEngine(n, WithShards(2)); err == nil {
		t.Fatal("NewEngine accepted WithShards")
	}
	if _, err := NewSupervised("bnb", 3, WithShards(2)); err == nil {
		t.Fatal("NewSupervised accepted WithShards")
	}
	if _, err := NewCluster("bnb", 3, WithVOQ()); err == nil {
		t.Fatal("NewCluster accepted WithVOQ")
	}
	if _, err := NewCluster("bnb", 3, WithTrace(func(int, []Word) {})); err == nil {
		t.Fatal("NewCluster accepted WithTrace")
	}
	if _, err := NewCluster("bnb", 3, WithShards(0)); err == nil {
		t.Fatal("NewCluster accepted WithShards(0)")
	}
	// The engine options configured only the shard engines a cluster no
	// longer has.
	for name, opt := range map[string]Option{
		"WithWorkers":  WithWorkers(2),
		"WithQueue":    WithQueue(8),
		"WithTimeout":  WithTimeout(time.Second),
		"WithShedding": WithShedding(),
	} {
		if _, err := NewCluster("bnb", 3, opt); err == nil {
			t.Fatalf("NewCluster accepted %s", name)
		}
	}
	if _, err := NewCluster("nope", 3); err == nil {
		t.Fatal("NewCluster accepted an unknown family")
	}
}

// ExampleNewCluster demonstrates the multi-shard fabric entry point: four
// supervised shards of 2^2 ports joined into one 16-port permutation
// network, grown live by a fifth shard.
func ExampleNewCluster() {
	c, err := NewCluster("bnb", 2, WithShards(4))
	if err != nil {
		panic(err)
	}
	defer c.Close()
	out, err := c.RoutePerm(Perm{15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	if err != nil {
		panic(err)
	}
	fmt.Println(c.Name(), c.Inputs(), "inputs; output 0 came from input", out[0].Data)
	if _, err := c.AddShard(context.Background()); err != nil {
		panic(err)
	}
	fmt.Println("grown live to", c.Shards(), "shards,", c.Inputs(), "inputs")
	// Output:
	// cluster(bnb) 16 inputs; output 0 came from input 15
	// grown live to 5 shards, 20 inputs
}

// TestClusterShardOptionsPropagate pins that per-shard serving options
// configure every shard: 3 planes per shard must show up in Stats.
func TestClusterShardOptionsPropagate(t *testing.T) {
	c, err := NewCluster("bnb", 3, WithShards(2), WithPlanes(3), WithMetrics(NewMetrics()))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	st := c.Stats()
	if st.Metrics == nil {
		t.Fatal("cluster stats carry no metrics snapshot")
	}
	for _, sh := range st.Shards {
		if len(sh.Planes) != 3 {
			t.Fatalf("shard %d has %d planes, want 3", sh.Index, len(sh.Planes))
		}
		if len(sh.PlanCaches) != 3 {
			t.Fatalf("shard %d has %d plan caches, want 3", sh.Index, len(sh.PlanCaches))
		}
	}
}

// TestClusterObservability pins the observability contract of inline
// shards: every shard route is observed once into the shared sink and
// recorded as one request span that never queued.
func TestClusterObservability(t *testing.T) {
	const shards = 4
	sink := NewMetrics()
	tr := NewTracer(256)
	c, err := NewCluster("bnb", 3, WithShards(shards), WithMetrics(sink), WithTracer(tr), WithHealthInterval(time.Hour))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.RoutePerm(RandomPerm(c.Inputs(), rand.New(rand.NewSource(4)))); err != nil {
		t.Fatalf("RoutePerm: %v", err)
	}
	if got := sink.Snapshot().Routes; got != shards {
		t.Fatalf("one cluster route counted %d routes, want %d (one per shard)", got, shards)
	}
	var requests int
	for _, sp := range tr.Snapshot(0) {
		if sp.Kind != "request" || sp.Start.Before(start) {
			continue
		}
		requests++
		if sp.QueueWait != 0 || sp.Words != 8 || sp.Err != "" || sp.Attempts != 1 {
			t.Fatalf("shard span = %+v, want an 8-word request with no queue wait served on its first plane", sp)
		}
	}
	if requests != shards {
		t.Fatalf("one cluster route left %d request spans, want %d", requests, shards)
	}
	if st := c.Stats(); st.Workers != 0 || st.Shards[0].InFlight != 0 {
		t.Fatalf("idle cluster stats = %+v, want no workers and nothing in flight", st)
	}
}

// TestClusterCancelledRoutesNoShard pins that RouteIntoCtx checks its
// context before every shard: a cancelled route reaches none of them.
func TestClusterCancelledRoutesNoShard(t *testing.T) {
	sink := NewMetrics()
	c, err := NewCluster("bnb", 3, WithShards(4), WithMetrics(sink), WithHealthInterval(time.Hour))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	src := permWords(RandomPerm(c.Inputs(), rand.New(rand.NewSource(8))))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.RouteIntoCtx(ctx, make([]Word, c.Inputs()), src); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RouteIntoCtx: got %v, want context.Canceled", err)
	}
	if snap := sink.Snapshot(); snap.Routes != 0 || snap.Errors != 0 {
		t.Fatalf("cancelled route reached a shard: routes=%d errors=%d", snap.Routes, snap.Errors)
	}
	if c.InFlight() != 0 {
		t.Fatalf("InFlight = %d after the cancelled route", c.InFlight())
	}
}

// yieldNet is a shard network whose RouteInto parks the scheduled thread
// at check.Yield while armed, so a schedule can hold a cluster route inside
// a shard.
type yieldNet struct {
	Network
	br    BulkRouter
	armed *atomic.Bool
}

func (y yieldNet) RouteInto(dst, src []Word) error {
	if y.armed.Load() {
		check.Yield()
	}
	return y.br.RouteInto(dst, src)
}

// clusterScheduleRuns numbers the families the drain schedules register,
// so repeated runs (-count) never collide in the registry.
var clusterScheduleRuns atomic.Int64

// clusterHoldsDrain parks one cluster route inside shard 0, runs op on its
// own goroutine until started reports it has begun (its membership or
// lifecycle change is published), checks that op does not return while the
// route stays parked, then releases the route and checks that op returns
// without error and the route was delivered word for word.
func clusterHoldsDrain(t *testing.T, shards int, op func(*Cluster) error, started func(*Cluster) bool) {
	t.Helper()
	var armed atomic.Bool
	family := fmt.Sprintf("bnb-yield-%d", clusterScheduleRuns.Add(1))
	if err := Register(family, func(m, _ int) (Network, error) {
		n, err := New("bnb", m)
		if err != nil {
			return nil, err
		}
		br, _ := AsBulkRouter(n)
		return yieldNet{Network: n, br: br, armed: &armed}, nil
	}); err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(family, 2, WithShards(shards), WithHealthInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	armed.Store(true)
	p := RandomPerm(c.Inputs(), rand.New(rand.NewSource(9)))
	var routeErr error
	route := check.GoNamed("cluster-route", func(func()) {
		out, err := c.RoutePerm(p)
		if err != nil {
			routeErr = err
			return
		}
		for i, d := range p {
			if out[d].Addr != d || out[d].Data != uint64(i) {
				routeErr = fmt.Errorf("output %d = %+v, want {%d %d}", d, out[d], d, i)
				return
			}
		}
	})
	route.Step() // parked inside shard 0
	if got := c.InFlight(); got != 1 {
		t.Fatalf("parked route: InFlight = %d, want 1", got)
	}
	done := make(chan error, 1)
	go func() { done <- op(c) }()
	deadline := time.Now().Add(10 * time.Second)
	for !started(c) {
		if time.Now().After(deadline) {
			t.Fatal("the operation never started")
		}
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case err := <-done:
		t.Fatalf("the operation returned (%v) while a route was parked in a shard", err)
	case <-time.After(20 * time.Millisecond):
	}
	route.Finish()
	armed.Store(false)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("the operation after the route was released: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the operation did not return after the route was released")
	}
	if routeErr != nil {
		t.Fatalf("the parked route: %v", routeErr)
	}
}

// TestClusterDrainScheduleDrain pins that Drain waits on the live
// snapshot's gate: it does not return while a route is parked in a shard,
// and returns once the route is released and delivered.
func TestClusterDrainScheduleDrain(t *testing.T) {
	clusterHoldsDrain(t, 2, func(c *Cluster) error {
		return c.Drain(context.Background())
	}, func(c *Cluster) bool { return c.draining.Load() })
}

// TestClusterDrainScheduleRemoveShard pins that RemoveShard waits on the
// retired snapshot's gate: it publishes the shrunk membership, then does
// not return (nor close the removed shard) while a route that acquired the
// old membership is parked in a shard; the route is delivered across both
// old shards once released.
func TestClusterDrainScheduleRemoveShard(t *testing.T) {
	clusterHoldsDrain(t, 2, func(c *Cluster) error {
		got, err := c.RemoveShard(context.Background())
		if err == nil && got != 1 {
			err = fmt.Errorf("RemoveShard reported %d shards, want 1", got)
		}
		return err
	}, func(c *Cluster) bool { return c.Shards() == 1 })
}
