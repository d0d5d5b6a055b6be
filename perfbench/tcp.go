package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// The bnbserve binary TCP protocol, as its package comment specifies
// (big-endian): a request is an opcode byte; opcode 1 (info) has no
// payload, opcode 2 (route) is followed by uint32 n and n uint32
// destinations. A response is a status byte, then for an ok info uint32
// inputs + uint32 shards, for an ok route n uint32 sources.
const (
	opInfo  = 1
	opRoute = 2
)

// statusNames maps the protocol's status bytes to their meaning.
var statusNames = [...]string{"ok", "size mismatch", "not a permutation", "unavailable", "bad request", "internal"}

func statusName(b byte) string {
	if int(b) < len(statusNames) {
		return statusNames[b]
	}
	return fmt.Sprintf("unknown status %d", b)
}

// routeFrame encodes one route request.
func routeFrame(perm []int) []byte {
	f := make([]byte, 5+4*len(perm))
	f[0] = opRoute
	binary.BigEndian.PutUint32(f[1:5], uint32(len(perm)))
	for i, d := range perm {
		binary.BigEndian.PutUint32(f[5+4*i:], uint32(d))
	}
	return f
}

// tcpClient is one connection of the closed-loop load generator. Its
// buffers are sized once, so a route allocates nothing.
type tcpClient struct {
	conn    net.Conn
	r       *bufio.Reader
	resp    []byte
	sources []uint32
}

func dialClient(addr string, n int) (*tcpClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial bnbserve tcp %s: %w", addr, err)
	}
	return newTCPClient(conn, n), nil
}

// newTCPClient sizes a client's buffers for routes of n ports.
func newTCPClient(conn net.Conn, n int) *tcpClient {
	return &tcpClient{
		conn:    conn,
		r:       bufio.NewReaderSize(conn, 4+4*n),
		resp:    make([]byte, 4*n),
		sources: make([]uint32, n),
	}
}

func (c *tcpClient) close() error { return c.conn.Close() }

// status reads one response status byte; any status but ok is an error.
func (c *tcpClient) status() error {
	b, err := c.r.ReadByte()
	if err != nil {
		return fmt.Errorf("read status: %w", err)
	}
	if b != 0 {
		return fmt.Errorf("bnbserve answered %q", statusName(b))
	}
	return nil
}

// info asks the server for its port and shard counts.
func (c *tcpClient) info() (inputs, shards int, err error) {
	if _, err := c.conn.Write([]byte{opInfo}); err != nil {
		return 0, 0, fmt.Errorf("write info: %w", err)
	}
	if err := c.status(); err != nil {
		return 0, 0, err
	}
	var b [8]byte
	if _, err := io.ReadFull(c.r, b[:]); err != nil {
		return 0, 0, fmt.Errorf("read info: %w", err)
	}
	return int(binary.BigEndian.Uint32(b[:4])), int(binary.BigEndian.Uint32(b[4:])), nil
}

// route sends one pre-encoded route frame and decodes the sources vector.
func (c *tcpClient) route(frame []byte) ([]uint32, error) {
	if err := c.send(frame); err != nil {
		return nil, err
	}
	return c.receive(int(binary.BigEndian.Uint32(frame[1:5])))
}

func (c *tcpClient) send(frame []byte) error {
	if _, err := c.conn.Write(frame); err != nil {
		return fmt.Errorf("write route: %w", err)
	}
	return nil
}

// receive reads one route response of n sources.
func (c *tcpClient) receive(n int) ([]uint32, error) {
	if err := c.status(); err != nil {
		return nil, err
	}
	buf := c.resp[:4*n]
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return nil, fmt.Errorf("read route: %w", err)
	}
	src := c.sources[:n]
	for j := range src {
		src[j] = binary.BigEndian.Uint32(buf[4*j:])
	}
	return src, nil
}
