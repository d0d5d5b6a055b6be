// Command bnbserve fronts a multi-shard cluster fabric with network
// protocols: an HTTP JSON API for routing, introspection and live shard
// membership, and an optional length-prefixed binary TCP protocol for
// high-rate clients. The fabric is a bnbnet.Cluster — independent
// supervised BNB shards joined by edge-colored inter-shard exchange
// stages — so shards can be added and drained while requests are in
// flight, with zero loss and zero misrouting.
//
// Usage:
//
//	bnbserve [-family bnb] [-m 5] [-shards 4] [-planes 2]
//	         [-http :8080] [-tcp :9090] [-debug]
//
// HTTP API:
//
//	GET  /v1/info            {"family","shard_order","shards","inputs"}
//	POST /v1/route           {"perm":[d0,d1,...]} -> {"inputs","sources"}
//	                         sources[j] = the input whose word output j
//	                         received; 409 when the perm length no longer
//	                         matches the fabric (refetch /v1/info), 422
//	                         when it is not a permutation
//	GET  /v1/stats           the cluster's unified Stats() as JSON
//	POST /admin/shards/add   grow the fabric by one shard -> {"shards"}
//	POST /admin/shards/remove drain and retire one shard  -> {"shards"}
//	/debug/...               metrics exposition, trace dump, expvar and
//	                         pprof (with -debug)
//
// TCP protocol (big-endian): request = opcode byte, where opcode 1 (info)
// has no payload and opcode 2 (route) is followed by uint32 n and n
// uint32 destinations. Response = status byte (0 ok, 1 size mismatch,
// 2 not a permutation, 3 unavailable, 4 bad request, 5 internal), then
// for ok info uint32 inputs + uint32 shards, for ok route n uint32
// sources. On a size-mismatch status the client refetches info and
// retries; connections carry any number of requests.
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	bnbnet "repro"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.family, "family", "bnb", "network family of every shard")
	flag.IntVar(&cfg.m, "m", 5, "shard order (each shard has 2^m ports)")
	flag.IntVar(&cfg.shards, "shards", 4, "initial shard count")
	flag.IntVar(&cfg.planes, "planes", 0, "redundant planes per shard (0 = engine default)")
	flag.StringVar(&cfg.httpAddr, "http", ":8080", "HTTP listen address")
	flag.StringVar(&cfg.tcpAddr, "tcp", "", `binary TCP listen address, e.g. ":9090" ("" disables)`)
	flag.BoolVar(&cfg.debug, "debug", false, "mount the debug bundle (metrics, traces, expvar, pprof) under /debug/")
	flag.Parse()

	srv, err := newServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bnbserve:", err)
		os.Exit(1)
	}
	srv.start()
	fmt.Printf("bnbserve: %s fabric, %d shards x %d ports = %d aggregate ports\n",
		cfg.family, srv.cluster.Shards(), 1<<uint(cfg.m), srv.cluster.Inputs())
	fmt.Printf("bnbserve: http on %s\n", srv.HTTPAddr())
	if a := srv.TCPAddr(); a != "" {
		fmt.Printf("bnbserve: tcp on %s\n", a)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("bnbserve: draining")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bnbserve: shutdown:", err)
		os.Exit(1)
	}
}

// readHeaderTimeout bounds how long the HTTP front waits for a request's
// headers, so a client that never finishes them cannot hold a connection
// and its goroutine forever. Real clients send a few hundred bytes of
// headers at once. idleTimeout bounds how long it keeps an idle keep-alive
// connection open for the client's next request.
const readHeaderTimeout, idleTimeout = 5 * time.Second, 2 * time.Minute

type config struct {
	family            string
	m, shards, planes int
	httpAddr, tcpAddr string
	debug             bool
}

// server owns the cluster and both protocol fronts. The HTTP and TCP
// handlers share the cluster's own admission control: every route lands on
// whatever shard membership is live when it arrives, and membership
// changes surface to stale clients as clean size-mismatch rejections,
// never as lost or misrouted words.
type server struct {
	cluster *bnbnet.Cluster
	sink    *bnbnet.Metrics
	tracer  *bnbnet.Tracer

	httpLn  net.Listener
	httpSrv *http.Server
	tcpLn   net.Listener // nil when the TCP front is disabled

	wg sync.WaitGroup
	// closing is cancelled when Shutdown begins; it cuts short the pending
	// read of every TCP connection.
	closing context.Context
	shut    context.CancelFunc
}

func newServer(cfg config) (*server, error) {
	s := &server{sink: bnbnet.NewMetrics()}
	s.closing, s.shut = context.WithCancel(context.Background())
	opts := []bnbnet.Option{bnbnet.WithShards(cfg.shards), bnbnet.WithMetrics(s.sink)}
	if cfg.planes > 0 {
		opts = append(opts, bnbnet.WithPlanes(cfg.planes))
	}
	if cfg.debug {
		s.tracer = bnbnet.NewTracer(4096)
		opts = append(opts, bnbnet.WithTracer(s.tracer))
	}
	c, err := bnbnet.NewCluster(cfg.family, cfg.m, opts...)
	if err != nil {
		return nil, err
	}
	s.cluster = c

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/info", s.handleInfo)
	mux.HandleFunc("/v1/route", s.handleRoute)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/admin/shards/add", s.handleShardAdd)
	mux.HandleFunc("/admin/shards/remove", s.handleShardRemove)
	if cfg.debug {
		mux.Handle("/debug/", bnbnet.DebugHandler(s.sink, s.tracer))
	}
	s.httpSrv = &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}

	if s.httpLn, err = net.Listen("tcp", cfg.httpAddr); err != nil {
		c.Close()
		return nil, fmt.Errorf("http listen on %q: %w", cfg.httpAddr, err)
	}
	if cfg.tcpAddr != "" {
		if s.tcpLn, err = net.Listen("tcp", cfg.tcpAddr); err != nil {
			s.httpLn.Close()
			c.Close()
			return nil, fmt.Errorf("tcp listen on %q: %w", cfg.tcpAddr, err)
		}
	}
	return s, nil
}

// start launches the protocol fronts; it returns immediately.
func (s *server) start() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.httpSrv.Serve(s.httpLn) // http.ErrServerClosed on shutdown
	}()
	if s.tcpLn != nil {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.acceptTCP()
		}()
	}
}

// HTTPAddr returns the HTTP front's listen address (useful with ":0").
func (s *server) HTTPAddr() string { return s.httpLn.Addr().String() }

// TCPAddr returns the TCP front's listen address, or "" when disabled.
func (s *server) TCPAddr() string {
	if s.tcpLn == nil {
		return ""
	}
	return s.tcpLn.Addr().String()
}

// Shutdown stops admission, drains every in-flight request and closes the
// fabric: listeners first (no new connections), then every TCP
// connection's pending read is cut short — a frame already read is still
// answered, and a client idling between frames is let go — then the
// cluster's own drain (every accepted request lands), then teardown. If
// the fronts outlive ctx, Shutdown closes the fabric and returns ctx's
// error.
func (s *server) Shutdown(ctx context.Context) error {
	s.shut()
	s.httpSrv.Close()
	if s.tcpLn != nil {
		s.tcpLn.Close()
	}
	fronts := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(fronts)
	}()
	select {
	case <-fronts:
	case <-ctx.Done():
		s.cluster.Close()
		return ctx.Err()
	}
	if err := s.cluster.Drain(ctx); err != nil {
		s.cluster.Close()
		return err
	}
	return s.cluster.Close()
}

// ---------------------------------------------------------------------------
// HTTP front
// ---------------------------------------------------------------------------

type infoResponse struct {
	Family     string `json:"family"`
	ShardOrder int    `json:"shard_order"`
	Shards     int    `json:"shards"`
	Inputs     int    `json:"inputs"`
}

func (s *server) info() infoResponse {
	return infoResponse{
		Family:     s.cluster.ShardFamily(),
		ShardOrder: s.cluster.ShardOrder(),
		Shards:     s.cluster.Shards(),
		Inputs:     s.cluster.Inputs(),
	}
}

func (s *server) handleInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.info())
}

type routeRequest struct {
	Perm []int `json:"perm"`
}

type routeResponse struct {
	Inputs int `json:"inputs"`
	// Sources[j] is the input index whose word was delivered to output j.
	Sources []int `json:"sources"`
}

func (s *server) handleRoute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req routeRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return
	}
	out, err := s.cluster.RoutePerm(req.Perm)
	if err != nil {
		http.Error(w, err.Error(), routeStatus(err))
		return
	}
	sources := make([]int, len(out))
	for j, word := range out {
		sources[j] = int(word.Data)
	}
	writeJSON(w, http.StatusOK, routeResponse{Inputs: len(out), Sources: sources})
}

// routeStatus maps routing errors onto HTTP statuses: a size mismatch is a
// stale-membership conflict the client resolves by refetching /v1/info, a
// non-permutation is semantically invalid, a draining or closed fabric is
// unavailable, everything else is internal.
func routeStatus(err error) int {
	switch {
	case errors.Is(err, bnbnet.ErrBadSize):
		return http.StatusConflict
	case errors.Is(err, bnbnet.ErrNotPermutation):
		return http.StatusUnprocessableEntity
	case errors.Is(err, bnbnet.ErrDraining), errors.Is(err, bnbnet.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cluster.Stats())
}

func (s *server) handleShardAdd(w http.ResponseWriter, r *http.Request) {
	s.handleMembership(w, r, s.cluster.AddShard)
}

func (s *server) handleShardRemove(w http.ResponseWriter, r *http.Request) {
	s.handleMembership(w, r, s.cluster.RemoveShard)
}

func (s *server) handleMembership(w http.ResponseWriter, r *http.Request, op func(context.Context) (int, error)) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	shards, err := op(r.Context())
	if err != nil {
		status := http.StatusConflict
		if errors.Is(err, bnbnet.ErrDraining) || errors.Is(err, bnbnet.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Shards int `json:"shards"`
		Inputs int `json:"inputs"`
	}{shards, s.cluster.Inputs()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// ---------------------------------------------------------------------------
// TCP front
// ---------------------------------------------------------------------------

const (
	opInfo  = 1
	opRoute = 2

	tcpOK         = 0
	tcpBadSize    = 1
	tcpNotPerm    = 2
	tcpUnavail    = 3
	tcpBadRequest = 4
	tcpInternal   = 5

	// maxTCPPerm bounds a single route frame; 2^20 ports is far beyond any
	// fabric this process can host and keeps a garbage length prefix from
	// forcing a giant allocation.
	maxTCPPerm = 1 << 20
)

func (s *server) acceptTCP() {
	for {
		conn, err := s.tcpLn.Accept()
		if err != nil {
			if s.closing.Err() != nil || errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			stop := context.AfterFunc(s.closing, func() { conn.SetReadDeadline(time.Now()) })
			defer stop()
			s.serveTCPConn(conn)
		}()
	}
}

// serveTCPConn serves one connection's frames in order. The frame, word
// and response buffers live as long as the connection and are sized to the
// fabric, so a route frame allocates nothing; a frame of any other length
// is read in full into a discard sink and answered tcpBadSize, so it never
// grows them.
func (s *server) serveTCPConn(conn net.Conn) {
	var opcode [1]byte
	var u32 [4]byte
	var info [9]byte
	var raw, resp []byte
	var src, out []bnbnet.Word
	for {
		if _, err := io.ReadFull(conn, opcode[:]); err != nil {
			return // client hung up, or the server is shutting down
		}
		switch opcode[0] {
		case opInfo:
			info[0] = tcpOK
			binary.BigEndian.PutUint32(info[1:5], uint32(s.cluster.Inputs()))
			binary.BigEndian.PutUint32(info[5:9], uint32(s.cluster.Shards()))
			if _, err := conn.Write(info[:]); err != nil {
				return
			}
		case opRoute:
			if _, err := io.ReadFull(conn, u32[:]); err != nil {
				return
			}
			n := binary.BigEndian.Uint32(u32[:])
			if n == 0 || n > maxTCPPerm {
				conn.Write([]byte{tcpBadRequest})
				return
			}
			if int(n) != s.cluster.Inputs() {
				if _, err := io.CopyN(io.Discard, conn, 4*int64(n)); err != nil {
					return
				}
				if _, err := conn.Write([]byte{tcpBadSize}); err != nil {
					return
				}
				continue
			}
			if len(src) != int(n) {
				raw, resp = make([]byte, 4*n), make([]byte, 1+4*n)
				src, out = make([]bnbnet.Word, n), make([]bnbnet.Word, n)
			}
			if _, err := io.ReadFull(conn, raw); err != nil {
				return
			}
			for i := range src {
				src[i] = bnbnet.Word{Addr: int(binary.BigEndian.Uint32(raw[4*i:])), Data: uint64(i)}
			}
			// A membership change since the length check surfaces here as
			// ErrBadSize, answered like any other stale-size frame.
			if err := s.cluster.RouteInto(out, src); err != nil {
				if _, werr := conn.Write([]byte{tcpErrStatus(err)}); werr != nil {
					return
				}
				continue
			}
			resp[0] = tcpOK
			for j, word := range out {
				binary.BigEndian.PutUint32(resp[1+4*j:], uint32(word.Data))
			}
			if _, err := conn.Write(resp); err != nil {
				return
			}
		default:
			conn.Write([]byte{tcpBadRequest})
			return
		}
	}
}

func tcpErrStatus(err error) byte {
	switch {
	case errors.Is(err, bnbnet.ErrBadSize):
		return tcpBadSize
	case errors.Is(err, bnbnet.ErrNotPermutation):
		return tcpNotPerm
	case errors.Is(err, bnbnet.ErrDraining), errors.Is(err, bnbnet.ErrClosed):
		return tcpUnavail
	default:
		return tcpInternal
	}
}
