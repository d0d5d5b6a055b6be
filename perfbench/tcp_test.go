package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
)

// bnbserveSource is the server whose protocol the client speaks.
const bnbserveSource = "../cmd/bnbserve/main.go"

// bnbserveProtocol returns the server's package comment and the values of
// its integer protocol constants.
func bnbserveProtocol(t *testing.T) (string, map[string]int) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), bnbserveSource, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	consts := map[string]int{}
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != token.CONST {
			continue
		}
		for _, s := range g.Specs {
			vs := s.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if i < len(vs.Values) {
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.INT {
						v, _ := strconv.Atoi(lit.Value)
						consts[name.Name] = v
					}
				}
			}
		}
	}
	return f.Doc.Text(), consts
}

func TestProtocolMatchesBnbserve(t *testing.T) {
	doc, consts := bnbserveProtocol(t)
	if consts["opInfo"] != opInfo || consts["opRoute"] != opRoute {
		t.Errorf("opcodes: bnbserve has info=%d route=%d, client sends %d and %d", consts["opInfo"], consts["opRoute"], opInfo, opRoute)
	}
	for i, name := range []string{"tcpOK", "tcpBadSize", "tcpNotPerm", "tcpUnavail", "tcpBadRequest", "tcpInternal"} {
		if v, ok := consts[name]; !ok || v != i {
			t.Errorf("status %s = %d in bnbserve, the client reads %d as %q", name, v, i, statusName(byte(i)))
		}
	}
	// The package comment lists the statuses in words; the client's names
	// must be the same list.
	var list []string
	for i, n := range statusNames {
		list = append(list, fmt.Sprintf("%d %s", i, n))
	}
	want := "(" + strings.Join(list, ", ") + ")"
	if !strings.Contains(strings.Join(strings.Fields(doc), " "), want) {
		t.Errorf("bnbserve's package comment does not list the statuses %s", want)
	}
	if !strings.Contains(doc, "big-endian") {
		t.Error("bnbserve's package comment no longer says the protocol is big-endian")
	}
}

func TestRouteFrameLayout(t *testing.T) {
	got := routeFrame([]int{2, 0, 3, 1})
	want := []byte{opRoute, 0, 0, 0, 4, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1}
	if !bytes.Equal(got, want) {
		t.Fatalf("frame % x, want % x", got, want)
	}
}

// fakeServer answers one connection the way the protocol specifies, routing
// every permutation correctly unless status is not ok, until the client
// hangs up; the returned function hangs up and waits for the server.
func fakeServer(t *testing.T, status byte) (client net.Conn, hangUp func()) {
	srv, cli := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveFake(t, srv, status)
	}()
	return cli, func() {
		cli.Close()
		<-done
	}
}

func serveFake(t *testing.T, conn net.Conn, status byte) {
	defer conn.Close()
	var op [1]byte
	for {
		if _, err := io.ReadFull(conn, op[:]); err != nil {
			return
		}
		switch op[0] {
		case opInfo:
			resp := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0}
			binary.BigEndian.PutUint32(resp[1:], 4)
			binary.BigEndian.PutUint32(resp[5:], 1)
			conn.Write(resp)
		case opRoute:
			var hdr [4]byte
			io.ReadFull(conn, hdr[:])
			n := binary.BigEndian.Uint32(hdr[:])
			raw := make([]byte, 4*n)
			io.ReadFull(conn, raw)
			if status != 0 {
				conn.Write([]byte{status})
				continue
			}
			resp := make([]byte, 1+4*n)
			for i := uint32(0); i < n; i++ {
				d := binary.BigEndian.Uint32(raw[4*i:])
				binary.BigEndian.PutUint32(resp[1+4*d:], i)
			}
			conn.Write(resp)
		default:
			t.Errorf("client sent opcode %d", op[0])
			return
		}
	}
}

func TestClientSpeaksTheProtocol(t *testing.T) {
	cli, hangUp := fakeServer(t, 0)
	defer hangUp()
	c := newTCPClient(cli, 4)

	inputs, shards, err := c.info()
	if err != nil || inputs != 4 || shards != 1 {
		t.Fatalf("info = %d, %d, %v; want 4, 1, nil", inputs, shards, err)
	}
	perm := []int{2, 0, 3, 1}
	for i := 0; i < 3; i++ { // one connection carries any number of requests
		src, err := c.route(routeFrame(perm))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSources(src, perm); err != nil {
			t.Fatalf("sources %v: %v", src, err)
		}
	}
}

func TestClientReportsErrorStatus(t *testing.T) {
	cli, hangUp := fakeServer(t, 2)
	defer hangUp()
	c := newTCPClient(cli, 4)
	_, err := c.route(routeFrame([]int{0, 0, 1, 2}))
	if err == nil || !strings.Contains(err.Error(), "not a permutation") {
		t.Fatalf("status 2 read as %v, want a not-a-permutation error", err)
	}
}
