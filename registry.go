package bnbnet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Builder constructs a network of one family with N = 2^m inputs and
// dataBits payload bits per word. Families whose cost model has no data-path
// width reject a non-zero dataBits.
type Builder func(m, dataBits int) (Network, error)

// builders is the constructor registry behind New. The built-in families are
// pre-registered; Register adds more.
var builders = struct {
	sync.RWMutex
	m map[string]Builder
}{m: map[string]Builder{
	"bnb": func(m, dataBits int) (Network, error) {
		return NewBNB(m, dataBits)
	},
	"batcher":   newBatcherNetwork,
	"bitonic":   noDataBits("bitonic", newBitonicNetwork),
	"koppelman": newKoppelmanNetwork,
	"benes":     noDataBits("benes", newBenesNetwork),
	"waksman":   noDataBits("waksman", newWaksmanNetwork),
	"crossbar":  noDataBits("crossbar", newCrossbarNetwork),
}}

// noDataBits adapts an order-only constructor into a Builder that rejects a
// data-path width, since these families' cost models do not account for one.
func noDataBits(family string, build func(m int) (Network, error)) Builder {
	return func(m, dataBits int) (Network, error) {
		if dataBits != 0 {
			return nil, fmt.Errorf("bnbnet: family %q does not model data bits; drop WithDataBits", family)
		}
		return build(m)
	}
}

// Register adds a network family to the New registry. It fails on an empty
// name, a nil builder, or a name already taken.
func Register(family string, b Builder) error {
	if family == "" {
		return fmt.Errorf("bnbnet: empty family name")
	}
	if b == nil {
		return fmt.Errorf("bnbnet: nil builder for family %q", family)
	}
	builders.Lock()
	defer builders.Unlock()
	if _, dup := builders.m[family]; dup {
		return fmt.Errorf("bnbnet: family %q already registered", family)
	}
	builders.m[family] = b
	return nil
}

// Families lists every registered network family in sorted order.
func Families() []string {
	builders.RLock()
	defer builders.RUnlock()
	names := make([]string, 0, len(builders.m))
	for name := range builders.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// optFlag records which options were passed, so the constructors can reject
// the ones that do not apply to them — a typo fails loudly instead of
// silently doing nothing.
type optFlag uint

const (
	optDataBits optFlag = 1 << iota
	optWorkers
	optQueue
	optBatch
	optTrace
	optMetrics
	optFaults
	optTimeout
	optRetry
	optBreaker
	optFallback
	optShedding
	optPlanes
	optPlaneFaults
	optPlaneCap
	optHealthInterval
	optTracer
	optDebugAddr
	optVOQ
	optDegraded
	optPlanCache
	optHedge
	optShards
)

// optEngine masks the serving options that only NewEngine (and
// NewSupervised, which embeds an engine) understands.
const optEngine = optTimeout | optRetry | optBreaker | optFallback | optShedding | optTracer | optDebugAddr

// optSupervised masks the redundancy options that only NewSupervised
// understands.
const optSupervised = optPlanes | optPlaneFaults | optPlaneCap | optHealthInterval | optHedge

// optFabric masks the cell-switch options that only NewFabric understands.
const optFabric = optVOQ | optDegraded

// options collects the functional options shared by New and NewEngine.
type options struct {
	set      optFlag
	dataBits int
	workers  int
	queue    int
	batch    int
	trace    func(stage int, snapshot []Word)
	metrics  *metrics.Metrics

	faults        *fault.Plan
	timeout       time.Duration
	retryAttempts int
	retryBackoff  time.Duration
	breaker       int
	fallback      Network

	shed           bool
	planes         int
	planeFaults    map[int]*fault.Plan
	planeCap       int
	healthInterval time.Duration

	tracer    *trace.Tracer
	debugAddr string

	voq      bool
	degraded bool

	planCache int

	shards int

	hedge     time.Duration
	hedgeAuto bool

	errs []error
}

func (o *options) anySet(mask optFlag) bool { return o.set&mask != 0 }

func (o *options) reject(format string, args ...any) {
	o.errs = append(o.errs, fmt.Errorf("bnbnet: "+format, args...))
}

func gatherOptions(opts []Option) (options, error) {
	var o options
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	if len(o.errs) > 0 {
		return o, o.errs[0]
	}
	return o, nil
}

// Option configures New or NewEngine. Each option documents which of the two
// it applies to; passing it to the other constructor is an error, so a typo
// fails loudly instead of silently doing nothing.
type Option func(*options)

// WithDataBits sets the payload width w (0 <= w <= 64) of each word for
// families that model it ("bnb", "batcher", "koppelman"). New only.
func WithDataBits(w int) Option {
	return func(o *options) { o.set |= optDataBits; o.dataBits = w }
}

// WithWorkers sets the worker-pool size of NewEngine and NewSupervised (and
// of each cluster shard under NewCluster); zero keeps the default of 4 and
// negative counts are rejected. New rejects it: one route is one serial
// kernel pass, and the engine runs requests in parallel instead.
func WithWorkers(n int) Option {
	return func(o *options) {
		if n < 0 {
			o.reject("WithWorkers(%d): worker count cannot be negative", n)
			return
		}
		o.set |= optWorkers
		o.workers = n
	}
}

// WithQueue bounds the number of in-flight engine requests before Submit
// blocks; zero keeps the default of 4x the worker count and negative bounds
// are rejected. NewEngine only.
func WithQueue(n int) Option {
	return func(o *options) {
		if n < 0 {
			o.reject("WithQueue(%d): queue bound cannot be negative", n)
			return
		}
		o.set |= optQueue
		o.queue = n
	}
}

// WithBatch caps the number of queued requests an engine worker dequeues
// per wakeup; zero keeps the default of 8 and negative caps are rejected.
// Larger batches amortize the wakeup cost across more requests under load;
// strict QoS priority still holds inside a batch, and a higher-class arrival
// preempts a batch's remainder. NewEngine and NewSupervised only.
func WithBatch(n int) Option {
	return func(o *options) {
		if n < 0 {
			o.reject("WithBatch(%d): batch size cannot be negative", n)
			return
		}
		o.set |= optBatch
		o.batch = n
	}
}

// WithTrace installs a stage observer on a network that supports traced
// routing (currently "bnb"): every Route additionally calls fn once per
// snapshot — snapshot 0 is the network input and snapshot i the word vector
// entering main stage i, with the final snapshot the output. The snapshots
// come from the routing kernel's per-column hook, so a traced route runs
// the same pass as an untraced one. New only.
func WithTrace(fn func(stage int, snapshot []Word)) Option {
	return func(o *options) { o.set |= optTrace; o.trace = fn }
}

// WithMetrics attaches an observability sink: every Route (New) or every
// served request (NewEngine) is counted into m with its latency. The sink is
// lock-free and may be snapshotted concurrently from other goroutines.
func WithMetrics(m *Metrics) Option {
	return func(o *options) { o.set |= optMetrics; o.metrics = m }
}

// WithFaults wraps the constructed network in a FaultyNetwork perturbing
// every route according to the plan, with delivery verification on — faults
// surface as errors (transient ones marked ErrTransient) rather than silent
// misdeliveries. Stuck-at and chaos plans require the "bnb" family, whose
// routing kernel takes switch-level overrides through its per-column hook.
// New only; it does not compose with WithTrace.
func WithFaults(plan *FaultPlan) Option {
	return func(o *options) {
		if plan == nil {
			o.reject("WithFaults(nil): nil fault plan")
			return
		}
		o.set |= optFaults
		o.faults = plan
	}
}

// WithTimeout bounds each engine request from Submit to completion; expired
// requests fail with ErrTimeout. NewEngine only.
func WithTimeout(d time.Duration) Option {
	return func(o *options) {
		if d < 0 {
			o.reject("WithTimeout(%v): negative timeout", d)
			return
		}
		o.set |= optTimeout
		o.timeout = d
	}
}

// WithRetry re-attempts engine requests that fail transiently (ErrTransient,
// the injector's mark for faults that heal) up to attempts total tries, with
// the given backoff before the first retry, doubling after each. NewEngine
// only.
func WithRetry(attempts int, backoff time.Duration) Option {
	return func(o *options) {
		if attempts < 1 {
			o.reject("WithRetry(%d, %v): need at least 1 attempt", attempts, backoff)
			return
		}
		if backoff < 0 {
			o.reject("WithRetry(%d, %v): negative backoff", attempts, backoff)
			return
		}
		o.set |= optRetry
		o.retryAttempts = attempts
		o.retryBackoff = backoff
	}
}

// WithBreaker arms the engine's circuit breaker: after threshold consecutive
// hard failures the breaker opens, requests fail fast with ErrBreakerOpen
// (or divert to the WithFallback network), and identity probes of the
// primary close it again once they pass. NewEngine only.
func WithBreaker(threshold int) Option {
	return func(o *options) {
		if threshold < 1 {
			o.reject("WithBreaker(%d): threshold must be at least 1", threshold)
			return
		}
		o.set |= optBreaker
		o.breaker = threshold
	}
}

// WithFallback registers a standby network served while the breaker is open;
// it must have the same port count as the primary. Requires WithBreaker.
// NewEngine only.
func WithFallback(n Network) Option {
	return func(o *options) {
		if n == nil {
			o.reject("WithFallback(nil): nil fallback network")
			return
		}
		o.set |= optFallback
		o.fallback = n
	}
}

// WithShedding enables deadline-aware admission control: a request carrying
// a deadline (WithTimeout or a SubmitCtx context deadline) is rejected at
// Submit with ErrOverloaded when the estimated queue drain time — in-flight
// depth times the observed service-time average over the workers — already
// exceeds it, so overload sheds early instead of accepting requests that
// would only expire in the queue. NewEngine and NewSupervised.
func WithShedding() Option {
	return func(o *options) { o.set |= optShedding; o.shed = true }
}

// WithTracer attaches a request-span recorder: every served request gets
// one TraceSpan — queue wait, service time, retries, plane failovers,
// shed/breaker decisions — published into the tracer's ring on completion
// (flushed as aborted on Close), and the supervisor's health probes are
// recorded alongside. A nil tracer is rejected; to disable tracing, omit
// the option — the disabled path costs zero allocations. NewEngine and
// NewSupervised.
func WithTracer(tr *Tracer) Option {
	return func(o *options) {
		if tr == nil {
			o.reject("WithTracer(nil): nil tracer; omit the option to disable tracing")
			return
		}
		o.set |= optTracer
		o.tracer = tr
	}
}

// WithDebugAddr starts the debug HTTP endpoint bundle (DebugHandler:
// Prometheus exposition, span dumps, expvar, pprof) on the given address,
// owned by the constructed engine and shut down by its Close. ":0" picks a
// free port — read it back with DebugAddr. The exposition serves the
// WithMetrics sink and the span dump the WithTracer ring; either may be
// absent. NewEngine and NewSupervised.
func WithDebugAddr(addr string) Option {
	return func(o *options) {
		if addr == "" {
			o.reject(`WithDebugAddr(""): empty listen address (use ":0" for a free port)`)
			return
		}
		o.set |= optDebugAddr
		o.debugAddr = addr
	}
}

// WithVOQ selects the virtual-output-queued switch with the iSLIP-style
// matcher — no head-of-line blocking — instead of the default FIFO
// input-queued switch. NewFabric only.
func WithVOQ() Option {
	return func(o *options) { o.set |= optVOQ; o.voq = true }
}

// WithDegraded selects the FIFO switch's graceful failure policy: cells a
// faulty routing core drops or misdelivers are requeued for a later cycle
// instead of aborting the run. It does not compose with WithVOQ. NewFabric
// only.
func WithDegraded() Option {
	return func(o *options) { o.set |= optDegraded; o.degraded = true }
}

// WithPlanCache fronts the served network with a lock-free cache of
// compiled route plans bounded at the given number of entries: a request
// whose permutation is cached replays the recorded switch settings by pure
// wire-following instead of re-running the arbiter tree, which is the
// dominant win for repeated-permutation traffic (DESIGN.md §12). Zero
// disables the cache; negative entries are rejected. The network must offer
// the compiled-plan surface (family "bnb", bare or behind New's
// decorators). NewEngine and NewSupervised; NewSupervised defaults to a
// 256-entry cache per plane when the option is absent and the planes
// support it — pass WithPlanCache(0) to opt out.
func WithPlanCache(entries int) Option {
	return func(o *options) {
		if entries < 0 {
			o.reject("WithPlanCache(%d): entry bound cannot be negative", entries)
			return
		}
		o.set |= optPlanCache
		o.planCache = entries
	}
}

// WithPlanes sets the number of redundant router planes K >= 2 the
// supervisor runs. NewSupervised only.
func WithPlanes(k int) Option {
	return func(o *options) {
		if k < 2 {
			o.reject("WithPlanes(%d): need at least 2 planes", k)
			return
		}
		o.set |= optPlanes
		o.planes = k
	}
}

// WithPlaneFaults injects a fault plan into one plane — the chaos harness
// of the supervision experiments. May be repeated for different planes.
// NewSupervised only.
func WithPlaneFaults(plane int, plan *FaultPlan) Option {
	return func(o *options) {
		if plane < 0 {
			o.reject("WithPlaneFaults(%d, ...): negative plane index", plane)
			return
		}
		if plan == nil {
			o.reject("WithPlaneFaults(%d, nil): nil fault plan", plane)
			return
		}
		if o.planeFaults == nil {
			o.planeFaults = make(map[int]*fault.Plan)
		}
		if _, dup := o.planeFaults[plane]; dup {
			o.reject("WithPlaneFaults(%d, ...): plane already has a fault plan", plane)
			return
		}
		o.set |= optPlaneFaults
		o.planeFaults[plane] = plan
	}
}

// WithPlaneCap bounds the requests concurrently routing on any one plane,
// so a degraded plane cannot absorb the whole queue; requests finding every
// eligible plane at its cap are shed with ErrOverloaded. Zero (the default)
// means no cap. NewSupervised only.
func WithPlaneCap(n int) Option {
	return func(o *options) {
		if n < 0 {
			o.reject("WithPlaneCap(%d): cap cannot be negative", n)
			return
		}
		o.set |= optPlaneCap
		o.planeCap = n
	}
}

// WithHedge arms tail-tolerant hedged routing on the supervisor: a request
// still unanswered after the given delay is re-issued on the next healthy
// plane and the first response wins, with the losing attempt abandoned
// safely. Hedging also enables slow-plane detection — planes chronically
// slower than the fleet's fastest latency EWMA are quarantined through the
// same machinery as misrouting ones. The delay must be positive; use
// WithHedgeAuto to derive it from the observed latencies instead.
// NewSupervised only.
func WithHedge(d time.Duration) Option {
	return func(o *options) {
		if d <= 0 {
			o.reject("WithHedge(%v): delay must be positive (use WithHedgeAuto to derive it from observed latency)", d)
			return
		}
		o.set |= optHedge
		o.hedge = d
	}
}

// WithHedgeAuto is WithHedge with the delay derived per request from the
// fleet's per-plane latency EWMAs (a multiple of the fastest healthy
// plane's), so the hedge fires around the observed tail instead of a fixed
// guess. Until the first latencies are observed, requests serve sequentially.
// NewSupervised only.
func WithHedgeAuto() Option {
	return func(o *options) { o.set |= optHedge; o.hedgeAuto = true }
}

// WithShards sets the number of shards S a cluster fabric aggregates; the
// cluster serves N = S·2^m ports from S supervised instances of order m.
// The default is 2; shards can also be added and drained at runtime with
// Cluster.AddShard and Cluster.RemoveShard. NewCluster only.
func WithShards(s int) Option {
	return func(o *options) {
		if s < 1 {
			o.reject("WithShards(%d): need at least 1 shard", s)
			return
		}
		o.set |= optShards
		o.shards = s
	}
}

// WithHealthInterval sets the period of the supervisor's background health
// sweep (probe passes over idle and quarantined planes); zero keeps the
// default of 10ms. NewSupervised only.
func WithHealthInterval(d time.Duration) Option {
	return func(o *options) {
		if d < 0 {
			o.reject("WithHealthInterval(%v): negative interval", d)
			return
		}
		o.set |= optHealthInterval
		o.healthInterval = d
	}
}

// New constructs a registered network family at order m (N = 2^m inputs),
// applying the given options. It is the single entry point replacing the
// per-family constructors:
//
//	n, err := bnbnet.New("bnb", 10, bnbnet.WithDataBits(16), bnbnet.WithMetrics(m))
//
// Options requesting a capability the family lacks (WithTrace on non-BNB
// families; WithDataBits where no width is modeled) fail here rather than
// degrading silently, as do the serving options (WithWorkers, WithQueue and
// the rest), which belong to NewEngine. If WithTrace or WithMetrics is set
// the returned Network is a decorator; Unwrap (via the
// interface{ Unwrap() Network } assertion) recovers the bare network.
func New(family string, m int, opts ...Option) (Network, error) {
	builders.RLock()
	b := builders.m[family]
	builders.RUnlock()
	if b == nil {
		return nil, fmt.Errorf("bnbnet: unknown network family %q (have %v)", family, Families())
	}
	o, err := gatherOptions(opts)
	if err != nil {
		return nil, err
	}
	if o.anySet(optWorkers) {
		return nil, fmt.Errorf("bnbnet: WithWorkers applies to NewEngine, not New")
	}
	if o.anySet(optQueue) {
		return nil, fmt.Errorf("bnbnet: WithQueue applies to NewEngine, not New")
	}
	if o.anySet(optBatch) {
		return nil, fmt.Errorf("bnbnet: WithBatch applies to NewEngine, not New")
	}
	if o.anySet(optEngine) {
		return nil, fmt.Errorf("bnbnet: WithTimeout, WithRetry, WithBreaker, WithFallback, WithShedding, WithTracer and WithDebugAddr apply to NewEngine, not New")
	}
	if o.anySet(optSupervised) {
		return nil, fmt.Errorf("bnbnet: WithPlanes, WithPlaneFaults, WithPlaneCap, WithHealthInterval and WithHedge apply to NewSupervised, not New")
	}
	if o.anySet(optFabric) {
		return nil, fmt.Errorf("bnbnet: WithVOQ and WithDegraded apply to NewFabric, not New")
	}
	if o.anySet(optPlanCache) {
		return nil, fmt.Errorf("bnbnet: WithPlanCache applies to NewEngine and NewSupervised, not New; use Compile/Replay directly on the bare network")
	}
	if o.anySet(optShards) {
		return nil, fmt.Errorf("bnbnet: WithShards applies to NewCluster, not New")
	}
	n, err := b(m, o.dataBits)
	if err != nil {
		return nil, err
	}
	if o.anySet(optFaults) {
		if o.anySet(optTrace) {
			return nil, fmt.Errorf("bnbnet: WithFaults does not compose with WithTrace")
		}
		return newFaulty(n, o.faults, o.metrics)
	}
	if o.trace != nil {
		if _, ok := n.(TracedRouter); !ok {
			return nil, fmt.Errorf("bnbnet: family %q does not support WithTrace", family)
		}
	}
	if o.trace != nil || o.metrics != nil {
		return &instrumented{base: n, trace: o.trace, m: o.metrics}, nil
	}
	return n, nil
}

// instrumented decorates a Network with the behaviors New's options request:
// stage tracing and metrics observation. It forwards the structural queries
// untouched.
type instrumented struct {
	base  Network
	trace func(stage int, snapshot []Word)
	m     *metrics.Metrics
}

// Unwrap returns the undecorated network.
func (x *instrumented) Unwrap() Network { return x.base }

// Name implements Network.
func (x *instrumented) Name() string { return x.base.Name() }

// Inputs implements Network.
func (x *instrumented) Inputs() int { return x.base.Inputs() }

// Cost implements Network.
func (x *instrumented) Cost() Cost { return x.base.Cost() }

// Delay implements Network.
func (x *instrumented) Delay() Delay { return x.base.Delay() }

// Route implements Network, applying the requested tracing and observing
// the call into the metrics sink.
func (x *instrumented) Route(words []Word) ([]Word, error) {
	start := time.Now()
	out, err := x.route(words)
	x.m.ObserveRoute(len(words), time.Since(start), err)
	return out, err
}

func (x *instrumented) route(words []Word) ([]Word, error) {
	if x.trace != nil {
		out, snaps, err := x.base.(TracedRouter).RouteTraced(words)
		if err != nil {
			return nil, err
		}
		for i, snap := range snaps {
			x.trace(i, snap)
		}
		return out, nil
	}
	return x.base.Route(words)
}

// RoutePerm implements Network.
func (x *instrumented) RoutePerm(p Perm) ([]Word, error) {
	return x.Route(permWords(p))
}
