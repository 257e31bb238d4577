package cluster

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"webtxprofile/internal/weblog"
)

// ErrClientClosed reports an RPC attempted on (or interrupted by) a
// closed node connection.
var ErrClientClosed = errors.New("cluster: node connection closed")

// ErrNodeRefused marks an error *reply*: the node received the request,
// processed it, and definitively failed it. Its absence on a failed RPC
// means a transport error — the request may or may not have been applied
// remotely, which matters to the router's drain fallback.
var ErrNodeRefused = errors.New("request refused")

// ErrNodeDown reports a node that stayed unreachable through the whole
// reconnect schedule (ClientConfig.Reconnect.MaxAttempts consecutive
// dial failures). The client is terminal: every queued feed is lost and
// every RPC fails, so the owner should drop it and re-plan placement.
var ErrNodeDown = errors.New("cluster: node down")

// ErrReplayOverflow reports a feed rejected because the node is
// disconnected and the bounded replay queue is full. Nothing was
// buffered and nothing will be retried for this call — the typed error
// is the contract that overflow is loud, never a silent drop.
var ErrReplayOverflow = errors.New("cluster: replay queue full while node is down")

// ReconnectConfig tunes the client's automatic reconnect.
type ReconnectConfig struct {
	// MaxAttempts is how many consecutive dial failures declare the node
	// down (terminal ErrNodeDown). Default 8; negative disables
	// reconnecting entirely — the first connection failure is terminal,
	// the pre-reconnect behavior.
	MaxAttempts int
	// BaseDelay is the first retry delay; each failure doubles it up to
	// MaxDelay. Defaults 25ms and 2s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// ReplayDepth bounds the feed replay queue: the number of
	// unacknowledged feed frames the client holds for re-delivery across
	// reconnects (default 256). While connected a full queue exerts
	// backpressure (Feed blocks); while reconnecting it fails fast with
	// ErrReplayOverflow.
	ReplayDepth int
}

func (r ReconnectConfig) withDefaults() ReconnectConfig {
	if r.MaxAttempts == 0 {
		r.MaxAttempts = 8
	}
	if r.BaseDelay <= 0 {
		r.BaseDelay = 25 * time.Millisecond
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = 2 * time.Second
	}
	if r.ReplayDepth <= 0 {
		r.ReplayDepth = 256
	}
	return r
}

// ClientConfig configures a NodeClient beyond the address.
type ClientConfig struct {
	// ClientID is this client's stable identity for node-side replay
	// dedup. Defaults to a random id, which is correct for every normal
	// use: the id must be stable across reconnects of one client, not
	// across client restarts (a restarted client has an empty replay
	// queue, so it replays nothing).
	ClientID string
	// Reconnect tunes automatic reconnection and the replay queue.
	Reconnect ReconnectConfig
	// OnDrop is called (if non-nil) when a buffered feed is discarded
	// because the node definitively refused it after a replay — a
	// protocol-bug signal, not a transport condition. Called from the
	// receive goroutine; must not block.
	OnDrop func(error)
}

// Client connection states.
const (
	clientReady      = iota // connected, handshake done, replay drained or draining
	clientConnecting        // manager is dialing/backing off
	clientDead              // terminal: ErrNodeDown or closed
)

// feedEntry is one unacknowledged feed frame in the replay queue.
type feedEntry struct {
	frame   Frame
	written bool       // written at least once: re-sends carry the Replay flag
	done    chan error // non-nil only for FeedSync callers; buffered
}

// NodeClient is one end of a node connection: synchronous request/reply
// RPCs multiplexed with unsolicited alert pushes, over a connection that
// automatically redials with exponential backoff when it dies. Feeds go
// through a bounded replay queue: Feed returns once the frame is
// buffered (and written, when connected), acknowledgements retire
// entries, and after a reconnect every unretired entry is re-sent in
// order with the Replay flag — the node's per-client dedup window turns
// that into exactly-once delivery. Alert pushes resume from the last
// sequence number the client saw, replayed from the node's alert ring,
// so a silently dying connection loses no alerts within the ring's
// horizon. Idempotent RPCs (staged exports and imports, commit, abort,
// flush, stats, list) are retried across reconnects — always after the
// replay queue has been re-sent, which preserves the feeds-before-export
// ordering the drain barrier needs; the non-idempotent legacy
// Export/Import fail on the first transport error, as before.
//
// RPCs may be issued from multiple goroutines; replies are matched by
// sequence number.
type NodeClient struct {
	addr    string
	cfg     ClientConfig
	onAlert func(NodeAlert)

	mu        sync.Mutex
	cond      sync.Cond
	conn      net.Conn
	w         *frameWriter
	name      string // remote node's self-reported name, from the hello reply
	state     int
	gen       int // connection generation; stale goroutines detect themselves
	deadGen   int // newest generation already reported dead
	err       error
	closed    bool
	seq       uint64
	pending   map[uint64]chan Frame
	replay    []*feedEntry
	unsent    int // index of the first entry not yet written on this connection
	lastAlert uint64
	everConn  bool // a hello has succeeded at least once (resume vs fresh subscribe)
}

// rpcRetryAttempts bounds how many connections an idempotent RPC will
// try before reporting the transport error. Each attempt waits for a
// live, replay-drained connection first, so the bound is on connection
// generations, not time.
const rpcRetryAttempts = 4

// DialNode connects to a cluster node with default configuration,
// performs the hello handshake and (when onAlert is non-nil) subscribes
// this connection to alert pushes. A node running another wire version
// fails the handshake with an error wrapping ErrWireVersion. onAlert
// runs on the client's receive goroutine, strictly in push order —
// per-device alert order is preserved — and before any reply the node
// wrote after those alerts is delivered to its waiter. It must not
// block: a stalled callback stalls every pending RPC on this connection.
func DialNode(addr string, onAlert func(NodeAlert)) (*NodeClient, error) {
	return DialNodeConfig(addr, onAlert, ClientConfig{})
}

// DialNodeConfig is DialNode with full configuration. The first dial is
// synchronous — an unreachable node fails construction — and later
// failures go through the reconnect schedule.
func DialNodeConfig(addr string, onAlert func(NodeAlert), cfg ClientConfig) (*NodeClient, error) {
	cfg.Reconnect = cfg.Reconnect.withDefaults()
	if cfg.ClientID == "" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return nil, fmt.Errorf("cluster: client id: %w", err)
		}
		cfg.ClientID = hex.EncodeToString(b[:])
	}
	c := &NodeClient{
		addr:    addr,
		cfg:     cfg,
		onAlert: onAlert,
		pending: make(map[uint64]chan Frame),
		seq:     1, // seq 1 is the hello on every connection
	}
	c.cond.L = &c.mu
	if err := c.connect(); err != nil {
		return nil, err
	}
	go c.sendLoop()
	go c.manageLoop()
	return c, nil
}

// Name returns the node's self-reported cluster name.
func (c *NodeClient) Name() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.name
}

// Close tears down the connection; in-flight RPCs fail with
// ErrClientClosed and no reconnect happens.
func (c *NodeClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.state = clientDead
	if c.err == nil {
		c.err = ErrClientClosed
	}
	conn := c.conn
	c.failPendingLocked()
	c.failFeedWaitersLocked(c.err)
	c.cond.Broadcast()
	c.mu.Unlock()
	if conn != nil {
		// Best-effort: the connection may already be dead (that can be
		// exactly why the caller is closing us).
		conn.Close()
	}
	return nil
}

// connect dials and completes the hello handshake, installing the new
// connection under the lock. Called from the constructor (fresh) and the
// manager (resume).
func (c *NodeClient) connect() error {
	c.mu.Lock()
	resume := c.everConn && c.onAlert != nil
	cursor := c.lastAlert
	c.mu.Unlock()

	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("cluster: dial node %s: %w", c.addr, err)
	}
	w := &frameWriter{bw: bufio.NewWriter(conn), conn: conn, timeout: 30 * time.Second}
	hello := Frame{
		Type: FrameHello, Seq: 1, Subscribe: c.onAlert != nil,
		Client: c.cfg.ClientID, Resume: resume, Cursor: cursor,
	}
	if err := w.write(hello); err != nil {
		conn.Close()
		return fmt.Errorf("cluster: hello to %s: %w", c.addr, err)
	}
	// The handshake is synchronous: the node pauses the subscription
	// outbox until the hello reply is written, so the first frame back is
	// always the reply.
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	reply, err := ReadFrame(br)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return fmt.Errorf("cluster: hello to %s: %w", c.addr, err)
	}
	if reply.Type == FrameError {
		conn.Close()
		return fmt.Errorf("cluster: hello to %s %w: %s", c.addr, ErrNodeRefused, reply.Error)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return ErrClientClosed
	}
	c.conn = conn
	c.w = w
	c.name = reply.Node
	if !c.everConn {
		// The reply's cursor is the node's current alert sequence; alerts
		// before it predate this subscription.
		c.lastAlert = reply.Cursor
	}
	c.everConn = true
	c.gen++
	c.unsent = 0 // every unretired feed entry is re-sent on this connection
	c.state = clientReady
	gen := c.gen
	c.cond.Broadcast()
	c.mu.Unlock()
	go c.receiveLoop(conn, br, gen)
	return nil
}

// connFailed reports connection generation gen dead: pending RPCs fail
// over to the retry path, the replay queue rewinds, and the manager is
// woken to redial. Duplicate reports for one generation (reader and
// writer both erroring) collapse to the first.
func (c *NodeClient) connFailed(gen int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || gen != c.gen || gen <= c.deadGen {
		return
	}
	c.deadGen = gen
	c.state = clientConnecting
	if c.conn != nil {
		c.conn.Close()
	}
	c.failPendingLocked()
	c.unsent = 0
	c.cond.Broadcast()
}

func (c *NodeClient) failPendingLocked() {
	for seq, ch := range c.pending {
		close(ch)
		delete(c.pending, seq)
	}
}

// failFeedWaitersLocked releases FeedSync waiters with err — called only
// on terminal transitions (close, node down), when their entries will
// never be delivered. The entries themselves stay queued; they are dead
// with the client.
func (c *NodeClient) failFeedWaitersLocked(err error) {
	for _, e := range c.replay {
		if e.done != nil {
			e.done <- err
			e.done = nil
		}
	}
}

// manageLoop owns reconnection: whenever a connection generation dies it
// redials with exponential backoff until a handshake succeeds or
// MaxAttempts consecutive failures declare the node down.
func (c *NodeClient) manageLoop() {
	for {
		c.mu.Lock()
		for !c.closed && c.state != clientConnecting {
			c.cond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()

		if c.cfg.Reconnect.MaxAttempts < 0 {
			c.terminate(fmt.Errorf("%w: %s (reconnect disabled)", ErrNodeDown, c.addr))
			return
		}
		delay := c.cfg.Reconnect.BaseDelay
		var lastErr error
		recovered := false
		for attempt := 1; attempt <= c.cfg.Reconnect.MaxAttempts; attempt++ {
			if err := c.connect(); err == nil {
				recovered = true
				break
			} else if errors.Is(err, ErrClientClosed) {
				return
			} else {
				lastErr = err
			}
			time.Sleep(delay)
			if delay *= 2; delay > c.cfg.Reconnect.MaxDelay {
				delay = c.cfg.Reconnect.MaxDelay
			}
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return
			}
		}
		if !recovered {
			c.terminate(fmt.Errorf("%w: %s after %d attempts: %v", ErrNodeDown, c.addr, c.cfg.Reconnect.MaxAttempts, lastErr))
			return
		}
	}
}

// terminate makes the client terminally dead with err.
func (c *NodeClient) terminate(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.state = clientDead
	c.failPendingLocked()
	c.failFeedWaitersLocked(c.err)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// sendLoop is the single feed writer: it drains the replay queue in
// order onto whatever connection is live, re-marking entries for replay
// when a connection dies before acknowledging them. Feeds never
// interleave out of order because only this goroutine writes them.
func (c *NodeClient) sendLoop() {
	for {
		c.mu.Lock()
		for !c.closed && c.err == nil && !(c.state == clientReady && c.unsent < len(c.replay)) {
			c.cond.Wait()
		}
		if c.closed || c.err != nil {
			c.mu.Unlock()
			return
		}
		e := c.replay[c.unsent]
		c.unsent++
		f := e.frame
		f.Replay = e.written
		e.written = true
		gen := c.gen
		w := c.w
		// An RPC barrier may be waiting for the queue to be fully sent.
		c.cond.Broadcast()
		c.mu.Unlock()
		if err := w.write(f); err != nil {
			c.connFailed(gen, err)
		}
	}
}

// Feed queues transactions for the node's monitor and returns once the
// frame is buffered in the replay queue (the send itself is
// asynchronous; acknowledgement retires the entry, reconnect replays
// it). A full queue blocks while the node is connected (backpressure)
// and fails with ErrReplayOverflow while it is down; a terminally dead
// node fails with ErrNodeDown.
func (c *NodeClient) Feed(txs []weblog.Transaction) error {
	_, err := c.feed(txs, false)
	return err
}

// FeedSync is Feed plus waiting until the frame is acknowledged or
// refused — the synchronous semantics pre-reconnect Feed had, used where
// the caller needs refusals (or a delivery barrier) in-line.
func (c *NodeClient) FeedSync(txs []weblog.Transaction) error {
	done, err := c.feed(txs, true)
	if err != nil || done == nil {
		return err
	}
	return <-done
}

func (c *NodeClient) feed(txs []weblog.Transaction, sync bool) (chan error, error) {
	if len(txs) == 0 {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed || c.err != nil {
			err := c.err
			if err == nil {
				err = ErrClientClosed
			}
			return nil, err
		}
		if len(c.replay) < c.cfg.Reconnect.ReplayDepth {
			break
		}
		if c.state != clientReady {
			return nil, fmt.Errorf("%w (depth %d)", ErrReplayOverflow, c.cfg.Reconnect.ReplayDepth)
		}
		c.cond.Wait()
	}
	c.seq++
	e := &feedEntry{frame: Frame{Type: FrameFeed, Seq: c.seq, Txs: txs}}
	if sync {
		e.done = make(chan error, 1)
	}
	c.replay = append(c.replay, e)
	c.cond.Broadcast()
	return e.done, nil
}

// retireFeed retires the replay entry seq acknowledges, if any. A
// refusal (error reply) is routed to the FeedSync waiter when there is
// one and to OnDrop otherwise — either way the entry is gone: the node
// definitively rejected it, so replaying it would refuse forever.
func (c *NodeClient) retireFeed(f Frame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.replay {
		if e.frame.Seq != f.Seq {
			continue
		}
		c.replay = append(c.replay[:i], c.replay[i+1:]...)
		if c.unsent > i {
			c.unsent--
		}
		c.cond.Broadcast()
		var ferr error
		if f.Type == FrameError {
			ferr = fmt.Errorf("cluster: node %s %w: %s", c.name, ErrNodeRefused, f.Error)
		}
		if e.done != nil {
			e.done <- ferr
		} else if ferr != nil && c.cfg.OnDrop != nil {
			c.cfg.OnDrop(ferr)
		}
		return
	}
}

// ExportHandoff stages an export of the named devices under a handoff id
// (see core.Monitor.ExportStaged), returning the blob and the number of
// devices the move carries — in the blob, or parked in a shared state
// tier. Idempotent per id, so it is retried across reconnects; the
// returned blob is identical on every retry. The drained devices' prior
// alerts have been delivered through onAlert when it returns.
func (c *NodeClient) ExportHandoff(id string, devices []string) ([]byte, int, error) {
	reply, err := c.roundTrip(Frame{Type: FrameExport, Handoff: id, Devices: devices})
	if err != nil {
		return nil, 0, err
	}
	return reply.Blob, reply.Count, nil
}

// ImportHandoff stages a state blob on the node under a handoff id,
// invisible until Commit. Idempotent per id; retried across reconnects.
func (c *NodeClient) ImportHandoff(id string, blob []byte) (int, error) {
	reply, err := c.roundTrip(Frame{Type: FrameImport, Handoff: id, Blob: blob})
	if err != nil {
		return 0, err
	}
	return reply.Count, nil
}

// Commit finalizes a staged handoff on the node (adopt the staged
// import, or release the held export). Idempotent; retried across
// reconnects. A definitive refusal — including core.ErrUnknownHandoff
// when the staged state died with a restart — surfaces as ErrNodeRefused.
func (c *NodeClient) Commit(id string) (int, error) {
	reply, err := c.roundTrip(Frame{Type: FrameCommit, Handoff: id})
	if err != nil {
		return 0, err
	}
	return reply.Count, nil
}

// Abort cancels a staged handoff on the node (drop the staged import, or
// re-adopt the held export). Idempotent; retried across reconnects.
func (c *NodeClient) Abort(id string) (int, error) {
	reply, err := c.roundTrip(Frame{Type: FrameAbort, Handoff: id})
	if err != nil {
		return 0, err
	}
	return reply.Count, nil
}

// List returns the devices the node holds state for (live or spilled).
func (c *NodeClient) List() ([]string, error) {
	reply, err := c.roundTrip(Frame{Type: FrameList})
	if err != nil {
		return nil, err
	}
	return reply.Devices, nil
}

// Flush asks the node to complete pending windows and deliver every
// outstanding alert; all resulting alerts have passed through onAlert
// when it returns.
func (c *NodeClient) Flush() error {
	_, err := c.roundTrip(Frame{Type: FrameFlush})
	return err
}

// Devices returns the node's tracked-device count.
func (c *NodeClient) Devices() (int, error) {
	reply, err := c.roundTrip(Frame{Type: FrameStats})
	if err != nil {
		return 0, err
	}
	return reply.Count, nil
}

// roundTrip issues one RPC and blocks for its reply. It first waits for
// a live connection whose replay queue is fully (re)written, so the node
// processes the request after every feed queued before it — the ordering
// the drain barrier relies on. A connection death fails the attempt;
// every request is idempotent, so it then waits for the next connection
// and tries again, up to rpcRetryAttempts generations. An error reply
// from the node surfaces as an error carrying the node's message.
func (c *NodeClient) roundTrip(req Frame) (Frame, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt >= rpcRetryAttempts {
			return Frame{}, lastErr
		}
		c.mu.Lock()
		for !c.closed && c.err == nil && !(c.state == clientReady && c.unsent == len(c.replay)) {
			c.cond.Wait()
		}
		if c.closed || c.err != nil {
			err := c.err
			c.mu.Unlock()
			if err == nil {
				err = ErrClientClosed
			}
			return Frame{}, err
		}
		gen := c.gen
		w := c.w
		name := c.name
		c.seq++
		req.Seq = c.seq
		ch := make(chan Frame, 1)
		c.pending[req.Seq] = ch
		c.mu.Unlock()

		if err := w.write(req); err != nil {
			c.mu.Lock()
			delete(c.pending, req.Seq)
			c.mu.Unlock()
			c.connFailed(gen, err)
			lastErr = err
			continue
		}
		reply, ok := <-ch
		if !ok {
			// Connection died before the reply; the manager is already
			// redialing (or the client is closed/dead).
			c.mu.Lock()
			err := c.err
			closed := c.closed
			c.mu.Unlock()
			if closed || err != nil {
				if err == nil {
					err = ErrClientClosed
				}
				return Frame{}, err
			}
			lastErr = fmt.Errorf("cluster: node %s: connection lost awaiting %s reply", name, req.Type)
			continue
		}
		if reply.Type == FrameError {
			return Frame{}, fmt.Errorf("cluster: node %s %w: %s", name, ErrNodeRefused, reply.Error)
		}
		return reply, nil
	}
}

// receiveLoop is the single reader of one connection generation: alerts
// are dispatched in-line (so they are observed before any later reply)
// and advance the resume cursor; feed acknowledgements retire replay
// entries; other replies are routed to their waiting RPC. A receive
// error reports the generation dead, which wakes the reconnect manager.
func (c *NodeClient) receiveLoop(conn net.Conn, br *bufio.Reader, gen int) {
	for {
		f, err := ReadFrame(br)
		if err != nil {
			if err == io.EOF {
				err = ErrClientClosed
			}
			c.connFailed(gen, err)
			return
		}
		if f.Type == FrameAlert {
			c.mu.Lock()
			dup := f.Seq != 0 && f.Seq <= c.lastAlert
			if !dup && f.Seq > c.lastAlert {
				c.lastAlert = f.Seq
			}
			c.mu.Unlock()
			if !dup && c.onAlert != nil && f.Alert != nil {
				c.onAlert(*f.Alert)
			}
			continue
		}
		c.mu.Lock()
		ch, isRPC := c.pending[f.Seq]
		if isRPC {
			delete(c.pending, f.Seq)
		}
		c.mu.Unlock()
		if isRPC {
			ch <- f
			continue
		}
		// Not a pending RPC: a feed acknowledgement (or a reply nobody
		// waits for anymore, which retireFeed ignores).
		c.retireFeed(f)
	}
}
