package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	bnbnet "repro"
)

func startTestServer(t *testing.T, cfg config) *server {
	t.Helper()
	if cfg.family == "" {
		cfg.family = "bnb"
	}
	if cfg.httpAddr == "" {
		cfg.httpAddr = "127.0.0.1:0"
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	s.start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil && !t.Failed() {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s
}

func getInfo(t *testing.T, base string) infoResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/info")
	if err != nil {
		t.Fatalf("GET /v1/info: %v", err)
	}
	defer resp.Body.Close()
	var info infoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode info: %v", err)
	}
	return info
}

func postRoute(base string, p []int) (int, routeResponse, error) {
	body, _ := json.Marshal(routeRequest{Perm: p})
	resp, err := http.Post(base+"/v1/route", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, routeResponse{}, err
	}
	defer resp.Body.Close()
	var rr routeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			return resp.StatusCode, rr, err
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, rr, nil
}

// checkDelivery asserts the canonical correctness relation: output p[i]
// received input i's word.
func checkDelivery(p []int, sources []int) error {
	if len(sources) != len(p) {
		return fmt.Errorf("%d sources for %d ports", len(sources), len(p))
	}
	for i, d := range p {
		if sources[d] != i {
			return fmt.Errorf("output %d received input %d, want %d", d, sources[d], i)
		}
	}
	return nil
}

func TestHTTPRoute(t *testing.T) {
	s := startTestServer(t, config{m: 3, shards: 2})
	base := "http://" + s.HTTPAddr()

	info := getInfo(t, base)
	if info.Inputs != 16 || info.Shards != 2 || info.ShardOrder != 3 || info.Family != "bnb" {
		t.Fatalf("info = %+v, want 2 bnb shards of order 3", info)
	}

	rng := rand.New(rand.NewSource(7))
	p := bnbnet.RandomPerm(info.Inputs, rng)
	status, rr, err := postRoute(base, p)
	if err != nil || status != http.StatusOK {
		t.Fatalf("route: status %d err %v", status, err)
	}
	if err := checkDelivery(p, rr.Sources); err != nil {
		t.Fatal(err)
	}

	// A non-permutation is semantically invalid.
	bad := make([]int, info.Inputs)
	if status, _, _ = postRoute(base, bad); status != http.StatusUnprocessableEntity {
		t.Fatalf("non-permutation: status %d, want 422", status)
	}
	// A stale size is a membership conflict.
	if status, _, _ = postRoute(base, bnbnet.RandomPerm(8, rng)); status != http.StatusConflict {
		t.Fatalf("wrong size: status %d, want 409", status)
	}
	// Stats round-trips as JSON.
	resp, err := http.Get(base + "/v1/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: %v status %v", err, resp.StatusCode)
	}
	var st bnbnet.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	resp.Body.Close()
	if st.Kind != "cluster" || len(st.Shards) != 2 {
		t.Fatalf("stats = kind %q with %d shards, want cluster/2", st.Kind, len(st.Shards))
	}
}

func TestDebugMount(t *testing.T) {
	s := startTestServer(t, config{m: 3, shards: 2, debug: true})
	base := "http://" + s.HTTPAddr()
	resp, err := http.Get(base + "/debug/bnb/metrics")
	if err != nil {
		t.Fatalf("GET /debug/bnb/metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug metrics status %d", resp.StatusCode)
	}
}

// tcpClient is a minimal client for the binary protocol.
type tcpClient struct{ conn net.Conn }

func dialTCP(t *testing.T, addr string) *tcpClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { conn.Close() })
	return &tcpClient{conn: conn}
}

func (c *tcpClient) info() (inputs, shards int, err error) {
	if _, err = c.conn.Write([]byte{opInfo}); err != nil {
		return
	}
	var resp [9]byte
	if _, err = io.ReadFull(c.conn, resp[:1]); err != nil {
		return
	}
	if resp[0] != tcpOK {
		err = fmt.Errorf("info status %d", resp[0])
		return
	}
	if _, err = io.ReadFull(c.conn, resp[1:]); err != nil {
		return
	}
	return int(binary.BigEndian.Uint32(resp[1:5])), int(binary.BigEndian.Uint32(resp[5:9])), nil
}

// route returns (status, sources, transport error).
func (c *tcpClient) route(p []int) (byte, []int, error) {
	frame := make([]byte, 5+4*len(p))
	frame[0] = opRoute
	binary.BigEndian.PutUint32(frame[1:5], uint32(len(p)))
	for i, d := range p {
		binary.BigEndian.PutUint32(frame[5+4*i:], uint32(d))
	}
	if _, err := c.conn.Write(frame); err != nil {
		return 0, nil, err
	}
	var status [1]byte
	if _, err := io.ReadFull(c.conn, status[:]); err != nil {
		return 0, nil, err
	}
	if status[0] != tcpOK {
		return status[0], nil, nil
	}
	raw := make([]byte, 4*len(p))
	if _, err := io.ReadFull(c.conn, raw); err != nil {
		return 0, nil, err
	}
	sources := make([]int, len(p))
	for i := range sources {
		sources[i] = int(binary.BigEndian.Uint32(raw[4*i:]))
	}
	return tcpOK, sources, nil
}

func TestTCPRoute(t *testing.T) {
	s := startTestServer(t, config{m: 3, shards: 2, tcpAddr: "127.0.0.1:0"})
	c := dialTCP(t, s.TCPAddr())

	inputs, shards, err := c.info()
	if err != nil || inputs != 16 || shards != 2 {
		t.Fatalf("info = %d inputs, %d shards, err %v; want 16/2", inputs, shards, err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5; i++ {
		p := bnbnet.RandomPerm(inputs, rng)
		status, sources, err := c.route(p)
		if err != nil || status != tcpOK {
			t.Fatalf("route %d: status %d err %v", i, status, err)
		}
		if err := checkDelivery(p, sources); err != nil {
			t.Fatal(err)
		}
	}
	// A non-permutation gets a clean typed status on the same connection.
	status, _, err := c.route(make([]int, inputs))
	if err != nil || status != tcpNotPerm {
		t.Fatalf("non-permutation: status %d err %v, want %d", status, err, tcpNotPerm)
	}
	// The connection survives the rejection.
	p := bnbnet.RandomPerm(inputs, rng)
	if status, sources, err := c.route(p); err != nil || status != tcpOK || checkDelivery(p, sources) != nil {
		t.Fatalf("route after rejection failed: status %d err %v", status, err)
	}
}

// TestTCPWrongSizeFrame pins the stale-size path of the TCP front: a
// route frame of another length than the fabric's is read in full and
// answered tcpBadSize, and the connection (and its buffers, which stay
// sized to the fabric) keeps serving right-sized frames afterwards.
func TestTCPWrongSizeFrame(t *testing.T) {
	s := startTestServer(t, config{m: 3, shards: 2, tcpAddr: "127.0.0.1:0"})
	c := dialTCP(t, s.TCPAddr())
	inputs, _, err := c.info()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i, n := range []int{inputs / 2, inputs + 8, 4 * inputs} {
		status, _, err := c.route(bnbnet.RandomPerm(n, rng))
		if err != nil || status != tcpBadSize {
			t.Fatalf("%d-port frame: status %d err %v, want %d", n, status, err, tcpBadSize)
		}
		p := bnbnet.RandomPerm(inputs, rng)
		status, sources, err := c.route(p)
		if err != nil || status != tcpOK {
			t.Fatalf("route %d after a wrong-size frame: status %d err %v", i, status, err)
		}
		if err := checkDelivery(p, sources); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLiveMembership is the serving acceptance: HTTP and TCP clients hammer
// the fabric while shards are added and drained over the admin API. Every
// accepted request must deliver word-for-word; stale-size conflicts are the
// only failures allowed, and nothing may be lost or misrouted.
func TestLiveMembership(t *testing.T) {
	s := startTestServer(t, config{m: 3, shards: 2, tcpAddr: "127.0.0.1:0"})
	base := "http://" + s.HTTPAddr()

	var stop atomic.Bool
	var routed, conflicts atomic.Int64
	var wg sync.WaitGroup

	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				info := getInfo(t, base)
				p := bnbnet.RandomPerm(info.Inputs, rng)
				status, rr, err := postRoute(base, p)
				if err != nil {
					t.Errorf("http route: %v", err)
					return
				}
				switch status {
				case http.StatusOK:
					if err := checkDelivery(p, rr.Sources); err != nil {
						t.Errorf("http misdelivery: %v", err)
						return
					}
					routed.Add(1)
				case http.StatusConflict:
					conflicts.Add(1)
				default:
					t.Errorf("http route: unexpected status %d", status)
					return
				}
			}
		}(int64(g))
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c, err := net.Dial("tcp", s.TCPAddr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			cl := &tcpClient{conn: c}
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				inputs, _, err := cl.info()
				if err != nil {
					t.Errorf("tcp info: %v", err)
					return
				}
				p := bnbnet.RandomPerm(inputs, rng)
				status, sources, err := cl.route(p)
				if err != nil {
					t.Errorf("tcp route: %v", err)
					return
				}
				switch status {
				case tcpOK:
					if err := checkDelivery(p, sources); err != nil {
						t.Errorf("tcp misdelivery: %v", err)
						return
					}
					routed.Add(1)
				case tcpBadSize:
					conflicts.Add(1)
				default:
					t.Errorf("tcp route: unexpected status %d", status)
					return
				}
			}
		}(100 + int64(g))
	}

	admin := func(path string, wantShards int) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", nil)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, body)
		}
		var out struct {
			Shards int `json:"shards"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
		if out.Shards != wantShards {
			t.Fatalf("POST %s: %d shards, want %d", path, out.Shards, wantShards)
		}
	}

	for cycle := 0; cycle < 3; cycle++ {
		time.Sleep(30 * time.Millisecond)
		admin("/admin/shards/add", 3)
		time.Sleep(30 * time.Millisecond)
		admin("/admin/shards/remove", 2)
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	if routed.Load() == 0 {
		t.Fatal("no request routed during the membership churn")
	}
	t.Logf("live membership: %d routed, %d stale-size conflicts, 0 lost, 0 misrouted",
		routed.Load(), conflicts.Load())
}

// TestShutdownReleasesIdleTCPClient leaves a TCP client connected and idle
// after an info frame: Shutdown must cut the connection's pending read short
// and return inside its deadline, and the client must see the server hang
// up.
func TestShutdownReleasesIdleTCPClient(t *testing.T) {
	s, err := newServer(config{family: "bnb", m: 3, shards: 2, httpAddr: "127.0.0.1:0", tcpAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	s.start()
	c := dialTCP(t, s.TCPAddr())
	if _, _, err := c.info(); err != nil {
		t.Fatalf("info: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown still blocked 5s after it began, 3s past its deadline")
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if n, err := c.conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle client read %d bytes, %v; want the server to have hung up", n, err)
	}
}

// TestSlowHeadersDisconnected opens an HTTP connection, sends the start of
// a request and never finishes its headers: the server must hang up once
// readHeaderTimeout has passed instead of holding the connection forever.
func TestSlowHeadersDisconnected(t *testing.T) {
	t.Parallel()
	s := startTestServer(t, config{m: 3, shards: 1})
	start := time.Now() // before the server can start the header clock
	conn, err := net.Dial("tcp", s.HTTPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/info HTTP/1.1\r\nHost: bnbserve\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(make([]byte, 1))
	if err != io.EOF {
		t.Fatalf("read %d bytes, %v after %v; want the server to close the connection", n, err, time.Since(start))
	}
	if elapsed := time.Since(start); elapsed < readHeaderTimeout {
		t.Errorf("connection closed after %v, before the %v header timeout", elapsed, readHeaderTimeout)
	}
}

func TestServerRejectsBadConfig(t *testing.T) {
	if _, err := newServer(config{family: "nope", m: 3, shards: 2, httpAddr: "127.0.0.1:0"}); err == nil {
		t.Fatal("newServer accepted an unknown family")
	}
	if _, err := newServer(config{family: "bnb", m: 3, shards: 0, httpAddr: "127.0.0.1:0"}); err == nil {
		t.Fatal("newServer accepted zero shards")
	}
}
