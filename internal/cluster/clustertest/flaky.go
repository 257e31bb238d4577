package clustertest

import (
	"bufio"
	"io"
	"net"
	"sync"
	"testing"

	"webtxprofile/internal/cluster"
)

// FlakyMode selects how a FlakyNode misbehaves.
type FlakyMode int

const (
	// RefusePark answers every park, including the router's join probe,
	// with an error frame carrying the FlakyNode's refusal — a node with
	// no state tier, or from a build that cannot park.
	RefusePark FlakyMode = iota
	// FailDestination answers the join probe, then refuses every later
	// park with an error frame — a destination that stops taking devices
	// between joining and the drain's check.
	FailDestination
	// DieAsDestination answers the join probe, then drops the connection
	// upon every later park — a destination crashing as a drain checks
	// it.
	DieAsDestination
)

// FlakyNode is a protocol-conformant impostor for fault-injection tests:
// it completes the hello handshake and answers feeds and stats, but fails
// parks per its mode. Building it on the real wire functions keeps the
// router's failure handling tested against the actual protocol, with no
// test hooks inside the production node.
type FlakyNode struct {
	name    string
	mode    FlakyMode
	refusal string
	ln      net.Listener
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	parks  int
}

// StartFlakyNode listens on loopback and serves the flaky protocol until
// the test ends. refusal is the error text of every refused park.
func StartFlakyNode(tb testing.TB, name string, mode FlakyMode, refusal string) *FlakyNode {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	f := &FlakyNode{name: name, mode: mode, refusal: refusal, ln: ln, conns: make(map[net.Conn]struct{})}
	f.wg.Add(1)
	go f.acceptLoop()
	tb.Cleanup(f.Close)
	return f
}

// Name returns the impostor's cluster name.
func (f *FlakyNode) Name() string { return f.name }

// Addr returns the bound address.
func (f *FlakyNode) Addr() string { return f.ln.Addr().String() }

// Parks reports how many park frames arrived, the join probe included.
func (f *FlakyNode) Parks() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.parks
}

// Close stops the impostor and hangs up on every connection, so a test
// that fails with a client still attached ends instead of waiting on it.
// Idempotent.
func (f *FlakyNode) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	for conn := range f.conns {
		conn.Close()
	}
	f.mu.Unlock()
	f.ln.Close()
	f.wg.Wait()
}

func (f *FlakyNode) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			conn.Close()
			return
		}
		f.conns[conn] = struct{}{}
		f.mu.Unlock()
		f.wg.Add(1)
		go f.serve(conn)
	}
}

func (f *FlakyNode) serve(conn net.Conn) {
	defer f.wg.Done()
	defer func() {
		conn.Close()
		f.mu.Lock()
		delete(f.conns, conn)
		f.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	reply := func(fr cluster.Frame) bool {
		if err := cluster.WriteFrame(bw, fr); err != nil {
			return false
		}
		return bw.Flush() == nil
	}
	for {
		fr, err := cluster.ReadFrame(br)
		if err != nil {
			if err != io.EOF {
				_ = err // connection torn down mid-frame; nothing to assert
			}
			return
		}
		switch fr.Type {
		case cluster.FrameHello:
			if !reply(cluster.Frame{Type: cluster.FrameOK, Seq: fr.Seq, Node: f.name}) {
				return
			}
		case cluster.FrameFeed:
			// Accept and discard: a black hole, but the router only feeds
			// this node devices it successfully moved here — which is
			// never.
			if !reply(cluster.Frame{Type: cluster.FrameOK, Seq: fr.Seq, Count: len(fr.Txs)}) {
				return
			}
		case cluster.FrameExport:
			f.mu.Lock()
			f.parks++
			probe := f.parks == 1 && f.mode != RefusePark
			f.mu.Unlock()
			switch {
			case probe:
				if !reply(cluster.Frame{Type: cluster.FrameOK, Seq: fr.Seq}) {
					return
				}
			case f.mode == DieAsDestination:
				return // connection drops with the RPC in flight
			default:
				if !reply(cluster.Frame{Type: cluster.FrameError, Seq: fr.Seq, Error: f.refusal}) {
					return
				}
			}
		case cluster.FrameFlush, cluster.FrameStats:
			if !reply(cluster.Frame{Type: cluster.FrameOK, Seq: fr.Seq}) {
				return
			}
		default:
			if !reply(cluster.Frame{Type: cluster.FrameError, Seq: fr.Seq, Error: "flaky node: unsupported"}) {
				return
			}
		}
	}
}
