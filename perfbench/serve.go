package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	bnbnet "repro"
)

// serverProc is one running bnbserve process.
type serverProc struct {
	cmd      *exec.Cmd
	httpAddr string
	tcpAddr  string
	ready    time.Duration // from exec until the "tcp on" line
	stderr   bytes.Buffer
	outDone  chan struct{} // closed once stdout reaches EOF
	drained  atomic.Bool   // saw the "bnbserve: draining" line
	client   *http.Client
}

// startServer execs bnbserve on loopback with its default fabric and waits
// until it announces its TCP address.
func startServer(bin string, extra ...string) (*serverProc, error) {
	if bin == "" {
		return nil, errors.New("serve-tcp needs -bnbserve, the path of a built cmd/bnbserve")
	}
	args := append([]string{"-http", "127.0.0.1:0", "-tcp", "127.0.0.1:0"}, extra...)
	p := &serverProc{
		cmd:     exec.Command(bin, args...),
		outDone: make(chan struct{}),
		client:  &http.Client{Timeout: 30 * time.Second},
	}
	// Should the benchmark die before it stops the server, the kernel
	// kills the server too.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p.cmd.Stderr = &p.stderr
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bnbserve: %w", err)
	}
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(p.outDone)
		sc := bufio.NewScanner(out)
		var httpAddr string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "bnbserve: http on "):
				httpAddr = strings.TrimPrefix(line, "bnbserve: http on ")
			case strings.HasPrefix(line, "bnbserve: tcp on "):
				addrs <- [2]string{httpAddr, strings.TrimPrefix(line, "bnbserve: tcp on ")}
			case line == "bnbserve: draining":
				p.drained.Store(true)
			}
		}
	}()
	select {
	case a := <-addrs:
		p.ready = time.Since(t0)
		p.httpAddr, p.tcpAddr = a[0], a[1]
		return p, nil
	case <-p.outDone:
	case <-time.After(60 * time.Second):
	}
	p.kill()
	return nil, fmt.Errorf("bnbserve did not announce its tcp address: %s", strings.TrimSpace(p.stderr.String()))
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// kill ends the process on an error path and waits for it.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // already exited is fine
	<-p.outDone
	_ = p.cmd.Wait() // the kill is the error being handled
}

// stop sends SIGINT and requires a clean drain: the "draining" line and
// exit status 0 within 30 s.
func (p *serverProc) stop() error {
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		p.kill()
		return fmt.Errorf("signal bnbserve: %w", err)
	}
	select {
	case <-p.outDone:
	case <-time.After(30 * time.Second):
		p.kill()
		return errors.New("bnbserve did not exit within 30s of SIGINT")
	}
	if err := p.cmd.Wait(); err != nil {
		return fmt.Errorf("bnbserve exit: %w: %s", err, strings.TrimSpace(p.stderr.String()))
	}
	if !p.drained.Load() {
		return errors.New("bnbserve exited without draining")
	}
	return nil
}

// getJSON fetches one JSON document from the server's HTTP front.
func (p *serverProc) getJSON(path string, v any) error {
	resp, err := p.client.Get("http://" + p.httpAddr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

func (p *serverProc) stats() (bnbnet.Stats, error) {
	var st bnbnet.Stats
	err := p.getJSON("/v1/stats", &st)
	return st, err
}

// serveSession is a started, connected and warmed bnbserve.
type serveSession struct {
	p      *serverProc
	conns  []*tcpClient
	in     *inputs
	setup  time.Duration
	closed bool
}

const serveShards = 4

// openSession starts bnbserve, connects the clients, checks the fabric's
// shape and fills every plan cache over TCP. Set-up time runs from exec
// until the caches are full.
func openSession(cfg config, in *inputs, extra ...string) (*serveSession, error) {
	t0 := time.Now()
	p, err := startServer(cfg.bnbserve, extra...)
	if err != nil {
		return nil, err
	}
	s := &serveSession{p: p, in: in}
	fail := func(err error) (*serveSession, error) {
		s.abort()
		return nil, err
	}
	for c := 0; c < clientCount; c++ {
		cl, err := dialClient(p.tcpAddr, in.n)
		if err != nil {
			return fail(err)
		}
		s.conns = append(s.conns, cl)
		inputs, shards, err := cl.info()
		if err != nil {
			return fail(err)
		}
		if inputs != in.n || shards != serveShards {
			return fail(fmt.Errorf("bnbserve serves %d ports on %d shards, want %d on %d", inputs, shards, in.n, serveShards))
		}
	}
	err = warmUp(in.warm,
		func(c int, req *request) error {
			src, err := s.conns[c].route(req.frame)
			if err != nil {
				return err
			}
			return checkSources(src, req.perm)
		},
		p.stats)
	if err != nil {
		return fail(err)
	}
	s.setup = time.Since(t0)
	return s, nil
}

func (s *serveSession) clients() []routeFunc {
	out := make([]routeFunc, clientCount)
	for c := range out {
		conn := s.conns[c]
		out[c] = func(k int) error {
			req := s.in.next(c, k)
			src, err := conn.route(req.frame)
			if err != nil {
				return err
			}
			return checkSources(src, req.perm)
		}
	}
	return out
}

// close hangs up the clients and stops the server, requiring a clean drain.
func (s *serveSession) close() error {
	s.closed = true
	s.hangUp()
	return s.p.stop()
}

// abort kills the server unless close already stopped it; callers defer
// it, so no error path leaves a server running.
func (s *serveSession) abort() {
	if !s.closed {
		s.closed = true
		s.hangUp()
		s.p.kill()
	}
}

func (s *serveSession) hangUp() {
	for _, c := range s.conns {
		c.close() // the connection is done with either way
	}
}

// serveInputs is freshInputs with every request's route frame encoded, so
// the clients send the same permutation sequence as cluster-m5x4.
func serveInputs(seed int64) *inputs {
	in := freshInputs(seed, 128)
	for _, reqs := range [][]request{in.warm, in.pool} {
		for i := range reqs {
			reqs[i].frame = routeFrame(reqs[i].perm)
		}
	}
	return in
}

const serveSetups = 3

// runServe is the untraced serve-tcp run.
func runServe(cfg config) (*result, error) {
	in := serveInputs(cfg.seed)
	var setups []float64
	var s *serveSession
	defer func() {
		if s != nil {
			s.abort()
		}
	}()
	for rep := 0; rep < serveSetups; rep++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if s, err = openSession(cfg, in); err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
	}
	pid := s.p.pid()
	lr, err := runLoop(s.clients(), cfg.seconds, time.Second, func() (time.Duration, error) { return procCPU(pid) }, nil)
	if err != nil {
		return nil, err
	}
	ws := lr.stats()
	r := &result{workload: "serve-tcp", mode: "end-to-end", attempted: ws.attempted, failed: ws.failed}
	addEndToEnd(r, ws, setups)
	rss, err := procPeakRSS(pid)
	if err != nil {
		return nil, err
	}
	r.add("mem_mb", "MB", float64(rss)/1e6, 1)
	st, err := s.p.stats()
	if err != nil {
		return nil, err
	}
	checkServer(r, st, int64(len(in.warm))+ws.attempted)
	if err := s.close(); err != nil {
		return nil, err
	}
	r.check("bnbserve drained on SIGINT", true, "exit status 0")
	return r, nil
}

// checkServer compares the server's own counters with the client's: every
// route the clients sent landed once on each of the four shards, none
// failed, and no plane failed over, hedged or left the healthy state.
func checkServer(r *result, st bnbnet.Stats, sent int64) {
	if st.Metrics == nil {
		r.check("bnbserve route count", false, "/v1/stats carries no metrics")
		return
	}
	m := st.Metrics
	r.check("bnbserve route count", m.Routes == serveShards*sent && m.Errors == 0,
		"shard routes=%d errors=%d, client sent %d routes x %d shards", m.Routes, m.Errors, sent, serveShards)
	r.check("no failovers or hedges", m.Failovers == 0 && m.Hedges == 0, "failovers=%d hedges=%d", m.Failovers, m.Hedges)
	ok, detail := planesHealthy(st)
	r.check("planes healthy", ok, "%s", detail)
}
