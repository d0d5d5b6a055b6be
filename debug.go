package bnbnet

// This file exposes the debug serving surface: request tracing handles
// (Tracer/TraceSpan, attached with WithTracer), and an HTTP endpoint bundle
// — Prometheus-style metrics exposition, recent-span dumps, expvar, and
// net/http/pprof — served either standalone via Serve or owned by an engine
// through WithDebugAddr (DESIGN.md §11).

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/trace"
)

// Tracer is a bounded lock-free ring of per-request spans with slow-request
// exemplar capture. Attach one to NewEngine or NewSupervised with WithTracer;
// a nil *Tracer is valid everywhere and disables tracing at zero cost on the
// routing hot path. See DESIGN.md §11 for the overhead budget.
type Tracer = trace.Tracer

// TraceSpan is one request's recorded life: queue wait, service time,
// plane attempts and failovers, shed decisions, outcome.
type TraceSpan = trace.Span

// TracerConfig tunes NewTracerConfig's ring capacity, slow threshold and
// exemplar bound.
type TracerConfig = trace.Config

// NewTracer returns a tracer keeping the most recent capacity spans
// (rounded up to a power of two; <= 0 selects 1024), with the default 1ms
// slow-exemplar threshold.
func NewTracer(capacity int) *Tracer { return trace.New(trace.Config{Capacity: capacity}) }

// NewTracerConfig is NewTracer with full control over the slow-request
// exemplar capture.
func NewTracerConfig(cfg TracerConfig) *Tracer { return trace.New(cfg) }

// DebugHandler bundles the debug endpoints into one http.Handler:
//
//	/debug/bnb/metrics  Prometheus text exposition of the metrics sink
//	/debug/bnb/traces   JSON dump of recent spans (?n= bounds the count,
//	                    ?slow=1 selects the slow-request exemplars instead)
//	/debug/vars         the process-wide expvar surface (Publish targets)
//	/debug/pprof/...    the standard net/http/pprof profiles
//
// Either argument may be nil: a nil Metrics renders an all-zero exposition,
// a nil Tracer an empty span list, and the pprof/expvar surfaces work
// regardless.
func DebugHandler(m *Metrics, tr *Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/bnb/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.WritePrometheus(w, "bnb")
	})
	mux.HandleFunc("/debug/bnb/traces", func(w http.ResponseWriter, r *http.Request) {
		n := 0 // whole ring
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, fmt.Sprintf("bad n=%q: want a non-negative integer", q), http.StatusBadRequest)
				return
			}
			n = v
		}
		var spans []TraceSpan
		if r.URL.Query().Get("slow") == "1" {
			spans = tr.Slowest()
			if n > 0 && n < len(spans) {
				spans = spans[:n]
			}
		} else {
			spans = tr.Snapshot(n)
		}
		if spans == nil {
			spans = []TraceSpan{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Capacity  int         `json:"capacity"`
			Started   uint64      `json:"started"`
			Published uint64      `json:"published"`
			Spans     []TraceSpan `json:"spans"`
		}{tr.Capacity(), tr.Started(), tr.Published(), spans})
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a running debug HTTP endpoint; construct with Serve (or
// implicitly with WithDebugAddr) and stop with Close.
type DebugServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Serve starts the DebugHandler bundle on addr (":0" picks a free port —
// read it back with Addr) and returns the running server. Either argument
// may be nil; see DebugHandler.
func Serve(addr string, m *Metrics, tr *Tracer) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bnbnet: debug listen on %q: %w", addr, err)
	}
	d := &DebugServer{
		ln:   ln,
		srv:  &http.Server{Handler: DebugHandler(m, tr)},
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		// Serve returns http.ErrServerClosed on Close — a clean shutdown.
		_ = d.srv.Serve(ln)
	}()
	return d, nil
}

// Addr returns the server's listen address, useful with ":0".
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the server and waits for its serving goroutine to exit, so a
// Close-then-leak-check sequence observes no straggler. Idempotent.
func (d *DebugServer) Close() error {
	err := d.srv.Close()
	<-d.done
	return err
}
