# Convenience targets for the BNB reproduction.

GO ?= go

.PHONY: all build vet test test-short bench microbench check verify verify-cluster repro figures fuzz chaos soak-reconfig soak-tail soak-cluster clean

all: build vet test

# Full pre-merge gate: vet (plus staticcheck when installed), the
# race-detector suite, ten race-detector passes over the engine queue's
# claim, stress and priority tests (state the waiters and the workers
# both reach) and over the plane supervisor's rebuild-rule tests (a
# plane's hard-failure count, which the hot path's failures and the health
# checker's rebuilds both write), a 32-bit cross-compile (pins int-width
# bugs like the rotor truncation) and a 32-bit run of the packages whose
# bit-plane kernel is shift-and-mask code, plus gbn's runner, fault's
# rejection goldens and the cluster's looping decomposition (XOR and shift
# index math; amd64 hosts run 386 test binaries natively), one run
# without -race (whose instrumentation allocates, so the pins skip under
# it) of the allocation pins: zero on the pooled routing hot path, one
# ticket per engine request, what Compile keeps (objects and bytes), what
# a plan-cache insert adds and what building a supervised stack or a
# cluster allocates (no fault dictionary); a short fuzz smoke of the
# fault-injected pooled path, the differential verification battery up to
# m=4, and the benchmark module: perfbench is its own Go module (replace
# repro => ../), so the root ./... never compiles it and a removed public
# name would otherwise break it unnoticed.
check:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi
	GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) test ./internal/arbiter ./internal/splitter ./internal/core ./internal/wiring ./internal/gbn ./internal/fault ./internal/cluster
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'Claim|QueueStress|PriorityOrder' ./internal/engine
	$(GO) test -race -count=10 -run '^TestRebuild' ./internal/plane
	$(GO) test -run='Allocs$$' . ./internal/core ./internal/plancache
	$(GO) test -run='^$$' -fuzz FuzzPooledPathUnderFault -fuzztime 10s .
	$(GO) run ./cmd/bnbverify -maxm 4
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Differential + metamorphic verification of every registered family:
# exhaustive for N <= 8, the full BPC class at m=4, structured, random and
# adversarial batteries; exits nonzero on any divergence.
verify:
	$(GO) run ./cmd/bnbverify -maxm 4

# Cluster differential battery: a 4-shard fabric at each order is compared
# word-for-word against the monolithic aggregate network over the same
# sweep batteries (exhaustive N! at the small end).
verify-cluster:
	$(GO) run ./cmd/bnbverify -cluster -shards 4 -maxm 3

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Perf-trajectory smoke: run the bnbbench harness with quick sample counts
# into a scratch dir and validate the output against the bnbbench/v8
# schema. The committed BENCH_<m>.json files are full runs; refresh them
# after perf work with `$(GO) run ./cmd/bnbbench -m 3,5,7 -out .`.
bench:
	$(GO) run ./cmd/bnbbench -quick -m 5 -out /tmp
	$(GO) run ./cmd/bnbbench -validate /tmp/BENCH_5.json

# Raw go-test microbenchmarks (per-stage and per-family numbers).
microbench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table, equation check, claim, and extension study.
repro:
	$(GO) run ./cmd/bnbtables -all

# Regenerate the paper's figures as ASCII.
figures:
	$(GO) run ./cmd/netviz -fig 1
	$(GO) run ./cmd/netviz -fig 3
	$(GO) run ./cmd/netviz -fig 4
	$(GO) run ./cmd/netviz -fig 5

# Machine-readable report of the full evaluation.
json:
	$(GO) run ./cmd/bnbtables -json

fuzz:
	$(GO) test -fuzz FuzzAllNetworksAgree -fuzztime 30s .

# Fault-injected soak under the race detector: the chaos, degradation,
# and resilience suites, then a fabricsim run with 1% transient faults that
# must report 100% eventual delivery, and the supervised-planes availability
# run that must deliver every request despite a faulty plane. Both fabricsim
# invocations exit nonzero on any misdelivery.
chaos:
	$(GO) test -race -run 'Chaos|Degraded|Fault|Diagnos|Supervised|Plane|Shed' ./...
	$(GO) run -race ./cmd/fabricsim -net bnb -m 5 -traffic permutation -cycles 1000 -chaos 0.01
	$(GO) run -race ./cmd/fabricsim -net bnb -m 5 -planes 3 -chaos 0.01 -requests 10000

# Hitless-reconfiguration soak under the race detector: the lifecycle and
# rollout suites (drain contracts, plane add/remove, cache pre-warm, the
# 10k-request chaos rollout, the 100-iteration membership-churn leak check),
# the compiled-plan round-trip fuzz smoke, then a fabricsim run performing
# three live Reconfigure rollouts under 1% chaos that must deliver every
# request — the run exits nonzero on any loss or misroute.
soak-reconfig:
	$(GO) test -race -run 'Drain|Reconfig|Lifecycle|AddRemove|Shutdown' ./...
	$(GO) test -run='^$$' -fuzz FuzzPlanRoundTrip -fuzztime 10s .
	$(GO) run -race ./cmd/fabricsim -net bnb -m 5 -planes 3 -chaos 0.01 -reconfig 3 -requests 10000

# Tail-tolerance soak under the race detector: the hedge-race, slow-plane,
# poison-ledger and QoS suites, the 10k-request acceptance soak (one of
# three planes under 20ms-stall chaos; hedged p99 must stay within 3x a
# fault-free fleet's and the stalling plane must cycle through quarantine
# and readmission), then a fabricsim run with the same stall chaos under
# auto hedging that must deliver every request.
soak-tail:
	$(GO) test -race -run 'Hedge|Slow|Poison|Class|Background|Admit|Latency|Tail' ./...
	$(GO) test -race -run TestTailToleranceSoak -count=1 -timeout 300s .
	$(GO) run -race ./cmd/fabricsim -net bnb -m 5 -planes 3 -slow 20ms -hedge auto -requests 10000

# Cluster-fabric soak under the race detector: the cluster and serving
# suites, then a fabricsim cluster run with a live shard add and drain
# mid-stream — every request must deliver word-for-word or the run exits
# nonzero — and the bnbserve membership test hammering the HTTP and TCP
# fronts during shard churn.
soak-cluster:
	$(GO) test -race -run 'Cluster|Membership|Coloring|Decompose|Looping|Konig' ./...
	$(GO) test -race -run 'TestLiveMembership|TestHTTPRoute|TestTCPRoute|TestTCPWrongSizeFrame|TestShutdownReleasesIdleTCPClient' ./cmd/bnbserve
	$(GO) run -race ./cmd/fabricsim -net bnb -m 4 -cluster 4 -requests 2000

clean:
	$(GO) clean ./...
