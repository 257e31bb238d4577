package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"webtxprofile/internal/core"
)

// NodeConfig configures one cluster member.
type NodeConfig struct {
	// Name identifies the node in the membership view and in alert tags.
	// Required, and must be unique across the cluster (rendezvous
	// placement hashes it).
	Name string
	// K is the consecutive-window identification threshold of the node's
	// monitor (default 1, as in core).
	K int
	// Monitor tunes the node's monitor (sharding, eviction, spill).
	Monitor core.MonitorConfig
	// OnAlert, when non-nil, is invoked for every alert in addition to
	// the wire push — a local tap for logging daemons. Called from the
	// monitor's delivery goroutine; must not block for long.
	OnAlert func(core.Alert)
	// WriteTimeout bounds every frame write to a connection (default
	// 30s). It is what keeps a stalled peer from wedging the node: a
	// full TCP buffer blocks, it does not error, so without a deadline
	// one subscriber that stops reading would stall its outbox goroutine
	// forever. On timeout the write errors, the connection is dropped,
	// and the alert stream moves on.
	WriteTimeout time.Duration
	// AlertRing is how many recent alerts the node retains for cursor
	// resubscription (default 8192). Every alert is pushed with the
	// node's alert sequence number; a client that reconnects sends the
	// last sequence it saw and the node replays the ring entries past it,
	// so a silently dying connection loses no alerts as long as the
	// client returns within the ring's horizon. It also bounds each
	// subscriber's outbox: a subscriber that falls a full ring behind is
	// dropped (its reconnect replays from the ring).
	AlertRing int
	// DedupWindow is how many recently applied feed sequence numbers the
	// node remembers per named client (default 8192). A reconnecting
	// client replays its unacknowledged feed frames; any whose (client,
	// seq) is already in the window is acknowledged without feeding the
	// monitor twice — the node-side half of exactly-once replay. Size it
	// at least as large as the clients' replay queues.
	DedupWindow int
	// ErrorLog receives connection-level diagnostics; nil discards them.
	ErrorLog *log.Logger
}

// Node is one cluster member: a TCP server exposing its core.Monitor's
// Feed/FeedBatch, Park and Flush over the length-prefixed frame
// protocol, and pushing every alert to subscribed connections tagged
// with the node's name. A node is passive — it holds no membership view
// and trusts its router(s) to route transactions and drains correctly;
// the placement/drain guarantees live in Router.
type Node struct {
	name         string
	ln           net.Listener
	mon          *core.Monitor
	tap          func(core.Alert)
	writeTimeout time.Duration
	ringCap      int
	dedupWindow  int
	elog         *log.Logger

	mu      sync.Mutex
	conns   map[net.Conn]*frameWriter
	clients map[net.Conn]string // hello Client id per connection
	stopped bool
	closed  bool

	// amu guards the alert ring and the subscriber set together, so
	// registering a subscriber (snapshot the cursor, seed the backlog)
	// is atomic against the fanout appending new alerts — no alert can
	// fall between a subscriber's backlog and its live feed.
	amu  sync.Mutex
	ring alertRing
	subs map[net.Conn]*subscriber

	// smu guards the per-client feed dedup sessions.
	smu      sync.Mutex
	sessions map[string]*dedupWindow
	sessFIFO []string

	wg sync.WaitGroup
}

// maxClientSessions bounds the dedup-session map: a node keeps replay
// dedup state for this many distinct named clients (routers), evicting
// the oldest beyond it. Far above any realistic router-replica count.
const maxClientSessions = 64

// ListenNode starts a cluster node on addr over a trained profile set.
// The node owns its monitor; use Monitor for lifecycle operations the
// protocol does not cover (Checkpoint, local stats). Devices move between
// nodes only through the state tier, so a node that joins a router needs
// cfg.Monitor.Spill pointed at it (a statestore client): a node without
// one still serves feeds, but refuses every park, and a router refuses
// to add it as a member.
func ListenNode(addr string, set *core.ProfileSet, cfg NodeConfig) (*Node, error) {
	if cfg.Name == "" {
		return nil, errors.New("cluster: node needs a name")
	}
	n := &Node{
		name:         cfg.Name,
		tap:          cfg.OnAlert,
		writeTimeout: cfg.WriteTimeout,
		ringCap:      cfg.AlertRing,
		dedupWindow:  cfg.DedupWindow,
		elog:         cfg.ErrorLog,
		conns:        make(map[net.Conn]*frameWriter),
		clients:      make(map[net.Conn]string),
		subs:         make(map[net.Conn]*subscriber),
		sessions:     make(map[string]*dedupWindow),
	}
	if n.writeTimeout <= 0 {
		n.writeTimeout = 30 * time.Second
	}
	if n.ringCap <= 0 {
		n.ringCap = 8192
	}
	if n.dedupWindow <= 0 {
		n.dedupWindow = 8192
	}
	n.ring.entries = make([]ringAlert, n.ringCap)
	if n.elog == nil {
		n.elog = log.New(io.Discard, "", 0)
	}
	mon, err := core.NewMonitorWithConfig(set, cfg.K, n.fanout, cfg.Monitor)
	if err != nil {
		return nil, err
	}
	n.mon = mon
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		mon.Close()
		return nil, fmt.Errorf("cluster: node %s: listen %s: %w", cfg.Name, addr, err)
	}
	n.ln = ln
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Name returns the node's cluster name.
func (n *Node) Name() string { return n.name }

// Addr returns the bound address (useful with ":0").
func (n *Node) Addr() net.Addr { return n.ln.Addr() }

// Monitor exposes the node's monitor for lifecycle operations outside the
// wire protocol (Checkpoint on shutdown, Devices for stats).
func (n *Node) Monitor() *core.Monitor { return n.mon }

// Stop stops accepting, closes every connection and waits for the
// connection goroutines — but leaves the monitor alive, so the owner can
// still Flush (lossy end-of-stream alerts) or Checkpoint (durable
// shutdown) it afterwards. Idempotent.
func (n *Node) Stop() error {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return nil
	}
	n.stopped = true
	err := n.ln.Close()
	for c := range n.conns {
		c.Close()
	}
	n.mu.Unlock()
	n.amu.Lock()
	for _, sub := range n.subs {
		sub.close()
	}
	n.amu.Unlock()
	n.wg.Wait()
	return err
}

// Close is Stop plus closing the monitor (remaining alerts are delivered
// first). It does not flush pending windows — a node being drained has
// already parked its devices, and a crashing node should not emit
// synthetic end-of-stream alerts; call Stop then Monitor().Flush() first
// for lossy end-of-stream semantics. Idempotent.
func (n *Node) Close() error {
	err := n.Stop()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return err
	}
	n.closed = true
	n.mu.Unlock()
	n.mon.Close()
	return err
}

// fanout is the monitor's alert callback: stamp the alert with the
// node's next alert sequence number, retain it in the ring for cursor
// resubscription, and enqueue it to every subscriber's outbox (tagged
// with this node's name), plus the local tap if any. Runs on the
// monitor's single delivery goroutine, so ring order is per-device alert
// order; each outbox writes in queue order, so every subscriber sees
// that order too. The actual socket writes happen on the outbox
// goroutines — a slow subscriber backs up its own outbox (and is dropped
// when it falls a full ring behind), never the monitor.
func (n *Node) fanout(a core.Alert) {
	if n.tap != nil {
		n.tap(a)
	}
	na := &NodeAlert{Node: n.name, Alert: a}
	n.amu.Lock()
	seq := n.ring.push(*na)
	na.Seq = seq
	subs := make([]*subscriber, 0, len(n.subs))
	for _, sub := range n.subs {
		subs = append(subs, sub)
	}
	n.amu.Unlock()
	f := Frame{Type: FrameAlert, Seq: seq, Alert: na}
	for _, sub := range subs {
		if !sub.enqueue(f, n.ringCap) {
			n.elog.Printf("cluster node %s: dropping alert subscriber %s: outbox full (%d frames behind)", n.name, sub.conn.RemoteAddr(), n.ringCap)
			n.dropSubscriber(sub.conn)
		}
	}
}

// dropSubscriber deregisters and closes one subscriber connection. The
// client's reconnect resumes from its cursor against the ring, so the
// drop costs a round trip, not alerts.
func (n *Node) dropSubscriber(conn net.Conn) {
	n.amu.Lock()
	sub := n.subs[conn]
	delete(n.subs, conn)
	n.amu.Unlock()
	if sub != nil {
		sub.close()
		conn.Close()
	}
}

// syncSubscriber blocks until conn's outbox (if it is a subscriber) has
// written everything enqueued so far — the per-connection half of the
// alert ordering barrier: Monitor.Sync guarantees the alerts reached the
// outbox, this guarantees they reached the wire, so a park or flush
// reply written afterwards is strictly later than every prior alert on
// that connection.
func (n *Node) syncSubscriber(conn net.Conn) {
	n.amu.Lock()
	sub := n.subs[conn]
	n.amu.Unlock()
	if sub != nil {
		sub.drainWait()
	}
}

// ringAlert is one retained alert: the push sequence and the frame body.
type ringAlert struct {
	seq   uint64
	alert NodeAlert
}

// alertRing retains the last cap alerts by sequence number. Guarded by
// Node.amu.
type alertRing struct {
	entries []ringAlert
	seq     uint64 // sequence of the newest entry (0 = none yet)
}

func (r *alertRing) push(a NodeAlert) uint64 {
	r.seq++
	a.Seq = r.seq // (node, seq) names this alert instance cluster-wide
	r.entries[int(r.seq)%len(r.entries)] = ringAlert{seq: r.seq, alert: a}
	return r.seq
}

// at returns the retained entry for seq; valid only while the entry is
// within the ring's horizon (the caller just pushed or checked it).
func (r *alertRing) at(seq uint64) *ringAlert {
	return &r.entries[int(seq)%len(r.entries)]
}

// after collects the retained alerts with sequence > cursor, in order,
// and reports whether the ring still covers that span (false means
// alerts older than the ring's horizon are gone — the client was away
// too long).
func (r *alertRing) after(cursor uint64) (frames []Frame, complete bool) {
	if cursor >= r.seq {
		return nil, true
	}
	oldest := uint64(1)
	if r.seq > uint64(len(r.entries)) {
		oldest = r.seq - uint64(len(r.entries)) + 1
	}
	complete = cursor+1 >= oldest
	start := cursor + 1
	if start < oldest {
		start = oldest
	}
	frames = make([]Frame, 0, r.seq-start+1)
	for s := start; s <= r.seq; s++ {
		// Copy out of the ring: the frame outlives amu, and a later push
		// may recycle the slot while the outbox is still writing.
		a := r.at(s).alert
		frames = append(frames, Frame{Type: FrameAlert, Seq: s, Alert: &a})
	}
	return frames, complete
}

// subscriber is one alert-subscribed connection's outbox: a bounded
// frame queue drained by a dedicated goroutine through the connection's
// shared frameWriter. It starts paused so the hello reply (with the
// cursor) reaches the wire before any backlog.
type subscriber struct {
	conn net.Conn
	w    *frameWriter

	mu      sync.Mutex
	cond    sync.Cond
	queue   []Frame
	paused  bool
	writing bool
	closed  bool
}

func newSubscriber(conn net.Conn, w *frameWriter, backlog []Frame) *subscriber {
	s := &subscriber{conn: conn, w: w, queue: backlog, paused: true}
	s.cond.L = &s.mu
	return s
}

// enqueue appends one frame, failing if the outbox is max frames behind.
func (s *subscriber) enqueue(f Frame, max int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return true // dying anyway; not an overflow
	}
	if len(s.queue) >= max {
		return false
	}
	s.queue = append(s.queue, f)
	s.cond.Broadcast()
	return true
}

func (s *subscriber) unpause() {
	s.mu.Lock()
	s.paused = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *subscriber) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// drainWait blocks until everything enqueued so far is on the wire (or
// the subscriber died).
func (s *subscriber) drainWait() {
	s.mu.Lock()
	for !s.closed && (s.paused || s.writing || len(s.queue) > 0) {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// run writes queued frames in order until closed. A write failure closes
// the subscriber; the caller's deferred cleanup deregisters it.
func (s *subscriber) run(onError func(error)) {
	for {
		s.mu.Lock()
		for !s.closed && (s.paused || len(s.queue) == 0) {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		f := s.queue[0]
		s.queue = s.queue[1:]
		s.writing = true
		s.mu.Unlock()
		err := s.w.write(f)
		s.mu.Lock()
		s.writing = false
		if err != nil {
			s.closed = true
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		if err != nil {
			onError(err)
			return
		}
	}
}

// dedupWindow remembers the last cap applied feed sequence numbers of
// one named client, so replayed feeds after a reconnect apply exactly
// once.
type dedupWindow struct {
	mu      sync.Mutex
	applied map[uint64]struct{}
	order   []uint64
	cap     int
}

// seen reports whether seq is in the applied window.
func (d *dedupWindow) seen(seq uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.applied[seq]
	return ok
}

// admit records seq as applied and reports whether it was new. Replayed
// duplicates return false.
func (d *dedupWindow) admit(seq uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.applied[seq]; dup {
		return false
	}
	d.applied[seq] = struct{}{}
	d.order = append(d.order, seq)
	if len(d.order) > d.cap {
		delete(d.applied, d.order[0])
		d.order = d.order[1:]
	}
	return true
}

// session returns (creating if needed) the dedup window for a named
// client, evicting the oldest session beyond maxClientSessions.
func (n *Node) session(client string) *dedupWindow {
	n.smu.Lock()
	defer n.smu.Unlock()
	if d, ok := n.sessions[client]; ok {
		return d
	}
	d := &dedupWindow{applied: make(map[uint64]struct{}), cap: n.dedupWindow}
	n.sessions[client] = d
	n.sessFIFO = append(n.sessFIFO, client)
	if len(n.sessFIFO) > maxClientSessions {
		delete(n.sessions, n.sessFIFO[0])
		n.sessFIFO = n.sessFIFO[1:]
	}
	return d
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		w := &frameWriter{bw: bufio.NewWriter(conn), conn: conn, timeout: n.writeTimeout}
		n.mu.Lock()
		if n.stopped {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.conns[conn] = w
		n.mu.Unlock()
		n.wg.Add(1)
		go n.serveConn(conn, w)
	}
}

// serveConn handles one connection's request frames sequentially. Replies
// and alert pushes share the connection's frame writer, so they interleave
// as whole frames.
func (n *Node) serveConn(conn net.Conn, w *frameWriter) {
	defer n.wg.Done()
	defer func() {
		n.dropSubscriber(conn)
		conn.Close() // a refused or broken connection is hung up on
		n.mu.Lock()
		delete(n.conns, conn)
		delete(n.clients, conn)
		n.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	for {
		f, err := ReadFrame(br)
		if err != nil {
			if err != io.EOF {
				n.elog.Printf("cluster node %s: %s: %v", n.name, conn.RemoteAddr(), err)
			}
			return
		}
		reply := n.handle(conn, f)
		if err := w.write(reply); err != nil {
			n.elog.Printf("cluster node %s: %s: write: %v", n.name, conn.RemoteAddr(), err)
			return
		}
		if f.Type == FrameHello && reply.Type == FrameOK {
			// Only now does the outbox start: the subscription backlog
			// must land on the wire after the reply that carries its
			// cursor.
			n.amu.Lock()
			sub := n.subs[conn]
			n.amu.Unlock()
			if sub != nil {
				sub.unpause()
			}
		}
	}
}

// handle dispatches one request frame to the monitor and builds the
// reply.
func (n *Node) handle(conn net.Conn, f Frame) Frame {
	switch f.Type {
	case FrameHello:
		reply := Frame{Type: FrameOK, Seq: f.Seq, Node: n.name}
		if f.Client != "" {
			n.mu.Lock()
			n.clients[conn] = f.Client
			n.mu.Unlock()
		}
		if f.Subscribe {
			n.mu.Lock()
			w := n.conns[conn]
			n.mu.Unlock()
			n.amu.Lock()
			if old := n.subs[conn]; old != nil {
				old.close() // a re-hello on the same connection replaces the outbox
			}
			var backlog []Frame
			if f.Resume {
				var complete bool
				backlog, complete = n.ring.after(f.Cursor)
				if !complete {
					n.elog.Printf("cluster node %s: %s resumes from alert %d but the ring starts later — older alerts are lost", n.name, conn.RemoteAddr(), f.Cursor)
				}
			}
			sub := newSubscriber(conn, w, backlog)
			n.subs[conn] = sub
			// The cursor in the reply is where the client will stand once
			// its backlog (queued atomically with this snapshot) drains.
			reply.Cursor = n.ring.seq
			n.amu.Unlock()
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				sub.run(func(err error) {
					n.elog.Printf("cluster node %s: dropping alert subscriber %s: %v", n.name, conn.RemoteAddr(), err)
					conn.Close()
				})
			}()
		}
		return reply
	case FrameFeed:
		n.mu.Lock()
		client := n.clients[conn]
		n.mu.Unlock()
		var sess *dedupWindow
		if client != "" && f.Seq != 0 {
			sess = n.session(client)
			if f.Replay && sess.seen(f.Seq) {
				// Applied before the reconnect; the ack was what got lost.
				return Frame{Type: FrameOK, Seq: f.Seq, Count: len(f.Txs)}
			}
		}
		// Binary records decode structurally; apply the semantic checks
		// ParseLine runs on proxy log lines. Reject the whole frame before
		// feeding anything: a feed frame is an RPC from the router, not a
		// raw proxy log — a bad record means a protocol bug, not dirty
		// input.
		for i := range f.Txs {
			if err := f.Txs[i].Validate(); err != nil {
				return errorFrame(f.Seq, fmt.Errorf("record %d: %w", i, err))
			}
		}
		if err := n.mon.FeedBatch(f.Txs); err != nil {
			return errorFrame(f.Seq, err)
		}
		if sess != nil {
			sess.admit(f.Seq)
		}
		return Frame{Type: FrameOK, Seq: f.Seq, Count: len(f.Txs)}
	case FrameExport:
		// Park: spill the devices to the state tier and flush it. An
		// empty list parks nothing — the router's probe that this node
		// answers and has a tier.
		count, err := n.mon.Park(f.Devices)
		if err != nil {
			return errorFrame(f.Seq, err)
		}
		// Ordering barrier: every alert of the parked devices must be on
		// the wire before the reply, so the new owner's alerts are
		// strictly later at the router.
		n.mon.Sync()
		n.syncSubscriber(conn)
		return Frame{Type: FrameOK, Seq: f.Seq, Count: count}
	case FrameList:
		names := n.mon.TrackedDevices()
		return Frame{Type: FrameOK, Seq: f.Seq, Devices: names, Count: len(names)}
	case FrameFlush:
		// A device that cannot be rehydrated fails the reply, but not
		// the flush of the others.
		_, err := n.mon.Rehydrate(f.Devices)
		n.mon.Flush()
		n.syncSubscriber(conn)
		if err != nil {
			return errorFrame(f.Seq, err)
		}
		return Frame{Type: FrameOK, Seq: f.Seq}
	case FrameStats:
		// Stats doubles as the router's Sync barrier: the reply must be
		// ordered after every alert raised by already-processed feeds, so
		// drain the monitor's alert pump and this connection's outbox
		// before answering — Router.Sync then guarantees those alerts
		// have reached its fan-in callback.
		n.mon.Sync()
		n.syncSubscriber(conn)
		return Frame{Type: FrameOK, Seq: f.Seq, Count: n.mon.Devices()}
	default:
		return errorFrame(f.Seq, fmt.Errorf("frame type %q is not a request", f.Type))
	}
}

// frameWriter serializes whole-frame writes onto one connection, shared
// by the reply path and the alert fanout, encoding each frame into a
// reused scratch buffer. Every write runs under a deadline (when conn and
// timeout are set): a peer that stops reading makes the write error out
// instead of blocking on the kernel buffer.
type frameWriter struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	conn    net.Conn
	timeout time.Duration
	scratch []byte
}

func (w *frameWriter) write(f Frame) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.conn != nil && w.timeout > 0 {
		w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
		defer w.conn.SetWriteDeadline(time.Time{})
	}
	var err error
	if w.scratch, err = writeFrame(w.bw, w.scratch, f); err != nil {
		return err
	}
	return w.bw.Flush()
}
