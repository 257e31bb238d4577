package clustertest

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"testing"

	"webtxprofile/internal/cluster"
)

// FlakyMode selects how a FlakyNode misbehaves.
type FlakyMode int

const (
	// FailImport answers every import with an error frame — a node whose
	// monitor refuses the blob (version drift, corrupt state).
	FailImport FlakyMode = iota
	// DieOnImport drops the connection upon receiving an import frame —
	// a node crashing mid-import.
	DieOnImport
)

// FlakyNode is a protocol-conformant impostor for fault-injection tests:
// it completes the hello handshake and answers feeds and stats, but fails
// shard imports per its mode. Building it on the real wire functions
// keeps the router's failure handling tested against the actual protocol,
// with no test hooks inside the production node.
type FlakyNode struct {
	name string
	mode FlakyMode
	ln   net.Listener
	wg   sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	imports int
}

// StartFlakyNode listens on loopback and serves the flaky protocol until
// the test ends.
func StartFlakyNode(tb testing.TB, name string, mode FlakyMode) *FlakyNode {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	f := &FlakyNode{name: name, mode: mode, ln: ln}
	f.wg.Add(1)
	go f.acceptLoop()
	tb.Cleanup(f.Close)
	return f
}

// Name returns the impostor's cluster name.
func (f *FlakyNode) Name() string { return f.name }

// Addr returns the bound address.
func (f *FlakyNode) Addr() string { return f.ln.Addr().String() }

// Imports reports how many import frames arrived — the drains attempted
// against this node.
func (f *FlakyNode) Imports() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.imports
}

// Close stops the impostor. Idempotent.
func (f *FlakyNode) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
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
		f.wg.Add(1)
		go f.serve(conn)
	}
}

func (f *FlakyNode) serve(conn net.Conn) {
	defer f.wg.Done()
	defer conn.Close()
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
			// this node devices it successfully imported — which is never.
			if !reply(cluster.Frame{Type: cluster.FrameOK, Seq: fr.Seq, Count: len(fr.Txs)}) {
				return
			}
		case cluster.FrameImport:
			f.mu.Lock()
			f.imports++
			f.mu.Unlock()
			if f.mode == DieOnImport {
				return // connection drops with the RPC in flight
			}
			if !reply(cluster.Frame{Type: cluster.FrameError, Seq: fr.Seq,
				Error: errors.New("injected import failure").Error()}) {
				return
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
