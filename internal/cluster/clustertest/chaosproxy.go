package clustertest

import (
	"bufio"
	"bytes"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"webtxprofile/internal/cluster"
	"webtxprofile/internal/weblog"
)

// ChaosSeed returns this run's fault-injection seed: WTP_CHAOS_SEED when
// set, otherwise derived from the clock. The seed is always logged, so a
// failing chaos run replays exactly by exporting it — every scheduled
// fault in a test derives from a PRNG seeded with this value.
func ChaosSeed(tb testing.TB) int64 {
	tb.Helper()
	seed := time.Now().UnixNano()
	if s := os.Getenv("WTP_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			tb.Fatalf("WTP_CHAOS_SEED=%q: %v", s, err)
		}
		seed = v
	}
	tb.Logf("chaos seed: %d (replay with WTP_CHAOS_SEED=%d)", seed, seed)
	return seed
}

// Dir is the direction of a frame through the proxy.
type Dir int

const (
	// ToNode is client→node traffic (requests, feeds).
	ToNode Dir = iota
	// ToClient is node→client traffic (replies, alert pushes).
	ToClient
)

func (d Dir) String() string {
	if d == ToNode {
		return "to-node"
	}
	return "to-client"
}

// FaultEvent describes one frame about to be forwarded.
type FaultEvent struct {
	// Conn is the 1-based ordinal of the proxied connection (dials
	// through the proxy since it started, reconnects included).
	Conn int
	// Seq is the 1-based ordinal of this frame in this direction on this
	// connection.
	Seq int
	// Dir is the frame's direction.
	Dir Dir
	// Frame is a decoded copy, for classification only — the proxy
	// forwards the original bytes, so inspecting it cannot corrupt the
	// stream. An undecodable frame still flows (Frame is zero-valued).
	Frame cluster.Frame
}

// FaultAction is a FaultPlan's verdict on one frame.
type FaultAction int

const (
	// Pass forwards the frame unchanged.
	Pass FaultAction = iota
	// Drop swallows this frame and keeps the connection open — a lost
	// message (e.g. a dropped acknowledgement).
	Drop
	// Kill closes the connection with the frame undelivered — a crash or
	// connection reset at an exact protocol step.
	Kill
)

// FaultPlan schedules faults: called for every frame in both directions,
// it returns what happens to it. Called concurrently from the proxy's
// pump goroutines — plans carrying state must lock. Determinism comes
// from the caller: derive every probabilistic choice from a ChaosSeed'ed
// PRNG (guarded by the same lock) and the run replays from its seed.
type FaultPlan func(FaultEvent) FaultAction

// ChaosProxy is a frame-aware TCP proxy between a NodeClient (or
// Router) and a real Node: it decodes each length-prefixed frame for the
// FaultPlan, then forwards the original bytes. Faults are injected at
// exact protocol steps — "kill the connection carrying the third feed",
// "drop the import acknowledgement" — which is what makes the chaos
// suites deterministic where timer-based injection would race.
//
// Partition() severs the node completely (connections die, redials
// accepted then instantly closed) until Heal().
type ChaosProxy struct {
	backend string
	ln      net.Listener
	wg      sync.WaitGroup

	mu          sync.Mutex
	plan        FaultPlan
	conns       map[net.Conn]net.Conn // client conn → backend conn
	nconn       int
	kills       int
	drops       int
	partitioned bool
	closed      bool
}

// StartChaosProxy starts a proxy on loopback in front of backend.
// plan may be nil (all frames pass until SetPlan).
func StartChaosProxy(tb testing.TB, backend string, plan FaultPlan) *ChaosProxy {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	p := &ChaosProxy{backend: backend, ln: ln, plan: plan, conns: make(map[net.Conn]net.Conn)}
	p.wg.Add(1)
	go p.acceptLoop()
	tb.Cleanup(p.Close)
	return p
}

// Addr returns the proxy's listen address — what the router dials.
func (p *ChaosProxy) Addr() string { return p.ln.Addr().String() }

// SetPlan swaps the fault plan (nil = pass everything).
func (p *ChaosProxy) SetPlan(plan FaultPlan) {
	p.mu.Lock()
	p.plan = plan
	p.mu.Unlock()
}

// Kills reports connections killed by plan verdicts or Partition.
func (p *ChaosProxy) Kills() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.kills
}

// Drops reports frames swallowed by plan verdicts.
func (p *ChaosProxy) Drops() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.drops
}

// Partition cuts the node off: every live proxied connection is killed
// and new dials are accepted and instantly closed (the client sees a
// node that answers TCP but speaks nothing — a one-way partition's
// observable half) until Heal.
func (p *ChaosProxy) Partition() {
	p.mu.Lock()
	p.partitioned = true
	for c, b := range p.conns {
		c.Close()
		b.Close()
		p.kills++
	}
	p.mu.Unlock()
}

// Heal ends a Partition; the next dial through the proxy reaches the
// node again.
func (p *ChaosProxy) Heal() {
	p.mu.Lock()
	p.partitioned = false
	p.mu.Unlock()
}

// Close stops the proxy and severs every proxied connection. Idempotent.
func (p *ChaosProxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for c, b := range p.conns {
		c.Close()
		b.Close()
	}
	p.mu.Unlock()
	p.ln.Close()
	p.wg.Wait()
}

func (p *ChaosProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.partitioned || p.closed {
			p.mu.Unlock()
			conn.Close()
			continue
		}
		p.nconn++
		id := p.nconn
		p.mu.Unlock()

		backend, err := net.Dial("tcp", p.backend)
		if err != nil {
			conn.Close()
			continue
		}
		// Re-check under the lock that registers the pair: a Partition or
		// Close that landed during the dial found nothing to sever, so
		// this connection must not survive it.
		p.mu.Lock()
		if p.partitioned || p.closed {
			p.mu.Unlock()
			conn.Close()
			backend.Close()
			continue
		}
		p.conns[conn] = backend
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pump(conn, backend, id, ToNode)
		go p.pump(backend, conn, id, ToClient)
	}
}

// pump forwards frames src→dst, consulting the plan per frame. Closing
// either socket makes both pumps exit (the reader errors out).
func (p *ChaosProxy) pump(src, dst net.Conn, id int, dir Dir) {
	defer p.wg.Done()
	defer func() {
		src.Close()
		dst.Close()
		p.mu.Lock()
		if dir == ToNode { // one side owns the bookkeeping
			if b, ok := p.conns[src]; ok && b == dst {
				delete(p.conns, src)
			}
		}
		p.mu.Unlock()
	}()
	br := bufio.NewReader(src)
	seq := 0
	for {
		payload, err := weblog.ReadFrame(br, nil)
		if err != nil {
			return
		}
		seq++
		ev := FaultEvent{Conn: id, Seq: seq, Dir: dir}
		// Re-frame the payload verbatim: what gets forwarded is the bytes
		// read, so a decode failure just means an unclassified frame.
		raw := append(weblog.AppendFrameHeader(make([]byte, 0, 4+len(payload))), payload...)
		if weblog.FinishFrame(raw) != nil {
			return
		}
		if f, err := cluster.ReadFrame(bytes.NewReader(raw)); err == nil {
			ev.Frame = f
		}
		p.mu.Lock()
		plan := p.plan
		p.mu.Unlock()
		action := Pass
		if plan != nil {
			action = plan(ev)
		}
		switch action {
		case Drop:
			p.mu.Lock()
			p.drops++
			p.mu.Unlock()
			continue
		case Kill:
			p.mu.Lock()
			p.kills++
			p.mu.Unlock()
			return
		}
		if _, err := dst.Write(raw); err != nil {
			return
		}
	}
}
