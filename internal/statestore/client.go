package statestore

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webtxprofile/internal/core"
	"webtxprofile/internal/weblog"
)

// ErrQueueFull is returned by Put when the write-behind queue is at
// MaxPending and the device has no entry to coalesce into — the signal
// for the monitor to fall back to lossy eviction instead of blocking the
// feed path on an unreachable tier.
var ErrQueueFull = errors.New("statestore: write-behind queue full")

// ErrClosed is returned by operations on a closed client.
var ErrClosed = errors.New("statestore: client closed")

// serverError is an in-band opErr reply: a server decision, not a
// transport failure, so the RPC retry loop surfaces it untried.
type serverError struct{ msg string }

func (e *serverError) Error() string { return "statestore: server error: " + e.msg }

// ClientConfig tunes the write-behind client; the zero value works.
type ClientConfig struct {
	// FlushCount flushes the dirty queue once it holds this many devices
	// (default 64).
	FlushCount int
	// FlushAge flushes once the oldest dirty entry has waited this long
	// (default 50ms). Coalescing keeps the original arrival time, so a
	// hot device cannot postpone its own flush forever.
	FlushAge time.Duration
	// MaxPending bounds dirty + in-flight entries (default 4096); at the
	// bound, Put of a new device fails fast with ErrQueueFull.
	MaxPending int
	// DialTimeout bounds each (re)dial (default 5s).
	DialTimeout time.Duration
	// RPCTimeout bounds each request write and reply read (default 30s).
	RPCTimeout time.Duration
	// RetryAttempts is how many times a failed RPC is retried on a fresh
	// connection before the error surfaces (default 4).
	RetryAttempts int
	// RetryBaseDelay seeds the exponential backoff between retries
	// (default 25ms, doubling, capped at RetryMaxDelay).
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the backoff (default 1s).
	RetryMaxDelay time.Duration
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.FlushCount <= 0 {
		c.FlushCount = 64
	}
	if c.FlushAge <= 0 {
		c.FlushAge = 50 * time.Millisecond
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 4096
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 30 * time.Second
	}
	if c.RetryAttempts < 0 {
		c.RetryAttempts = 0
	} else if c.RetryAttempts == 0 {
		c.RetryAttempts = 4
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 25 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = time.Second
	}
	return c
}

// ClientStats snapshots the write-behind machinery.
type ClientStats struct {
	Flushes       uint64 // flush RPCs completed
	FlushedPuts   uint64 // entries acknowledged by the server
	StaleDrops    uint64 // entries the server superseded (fence worked)
	QueueFull     uint64 // Puts rejected with ErrQueueFull
	FlushFailures uint64 // flush RPCs that failed after all retries
	Pending       int    // dirty + in-flight entries right now
}

// pendEntry is one device's queued write. ver is the monotonic fencing
// version assigned at Put time; at is the first-Put arrival time that
// drives the age-based flush.
type pendEntry struct {
	ver  uint64
	blob []byte
	at   time.Time
}

// Client is the write-behind core.StateStore backend over a state
// server. Put is a local queue write (never a network call); Get reads
// pending local writes first, then the server; Delete and Devices are
// synchronous RPCs. Safe for concurrent use.
//
// Each monitor needs its own Client: the dirty queue and version cache
// are the *owner's* pending view of the tier, and sharing one across
// monitors would merge views that the versioning protocol keeps apart.
type Client struct {
	cfg  ClientConfig
	addr string

	flushes, flushedPuts, staleDrops, queueFull, flushFailures atomic.Uint64

	// mu guards the queue and version state. Never held across a network
	// call — flushOnce snapshots under mu, RPCs outside it.
	mu       sync.Mutex
	dirty    map[string]*pendEntry // queued, not yet sent
	inflight map[string]*pendEntry // sent, not yet acknowledged
	vers     map[string]uint64     // highest version the server acknowledged
	assigned map[string]uint64     // highest version handed out locally
	fences   map[string]uint64     // Delete fences: drop requeues at or below
	closed   bool

	// rpcMu serializes every RPC on the single connection (synchronous
	// request/reply — no pending map, no receive loop) and guards the
	// conn fields. Never acquired while holding mu.
	rpcMu   sync.Mutex
	conn    net.Conn
	br      *bufio.Reader
	seq     uint64
	scratch []byte // the request frame, reused

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

var _ core.StateStore = (*Client)(nil)

// Dial connects a write-behind client to the state server at addr. The
// initial dial is eager so a misconfigured address fails at startup;
// later failures redial transparently with backoff.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	c := &Client{
		cfg:      cfg.withDefaults(),
		addr:     addr,
		dirty:    make(map[string]*pendEntry),
		inflight: make(map[string]*pendEntry),
		vers:     make(map[string]uint64),
		assigned: make(map[string]uint64),
		fences:   make(map[string]uint64),
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	conn, err := net.DialTimeout("tcp", addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("statestore: dialing %s: %w", addr, err)
	}
	c.conn = conn
	c.br = bufio.NewReader(conn)
	c.wg.Add(1)
	go c.flusher()
	return c, nil
}

// Stats returns a write-behind snapshot.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	pending := len(c.dirty) + len(c.inflight)
	c.mu.Unlock()
	return ClientStats{
		Flushes:       c.flushes.Load(),
		FlushedPuts:   c.flushedPuts.Load(),
		StaleDrops:    c.staleDrops.Load(),
		QueueFull:     c.queueFull.Load(),
		FlushFailures: c.flushFailures.Load(),
		Pending:       pending,
	}
}

// Put queues the device's blob for write-behind flushing, assigning it a
// fresh monotonic version: strictly above everything the server has
// acknowledged to this client and everything this client has already
// handed out, so a re-Put always supersedes the copy a flush may have in
// flight. Never blocks on the network; at MaxPending it fails fast with
// ErrQueueFull.
func (c *Client) Put(device string, blob []byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if e, ok := c.dirty[device]; ok {
		// Coalesce: newest blob, fresh version, original arrival time
		// (so a hot device still flushes by age).
		e.blob = append(e.blob[:0], blob...)
		e.ver = c.nextVerLocked(device)
		c.mu.Unlock()
		return nil
	}
	if len(c.dirty)+len(c.inflight) >= c.cfg.MaxPending {
		c.queueFull.Add(1)
		c.mu.Unlock()
		return fmt.Errorf("%w (%d pending)", ErrQueueFull, c.cfg.MaxPending)
	}
	c.dirty[device] = &pendEntry{
		ver:  c.nextVerLocked(device),
		blob: append([]byte(nil), blob...),
		at:   time.Now(),
	}
	trigger := len(c.dirty) >= c.cfg.FlushCount
	c.mu.Unlock()
	if trigger {
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

func (c *Client) nextVerLocked(device string) uint64 {
	v := c.vers[device]
	if a := c.assigned[device]; a > v {
		v = a
	}
	v++
	c.assigned[device] = v
	return v
}

// Get reads through: a pending local write (dirty first — it is newer —
// then in-flight) is served from memory; otherwise the server is asked.
func (c *Client) Get(device string) ([]byte, bool, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, ErrClosed
	}
	if e, ok := c.dirty[device]; ok {
		blob := append([]byte(nil), e.blob...)
		c.mu.Unlock()
		return blob, true, nil
	}
	if e, ok := c.inflight[device]; ok {
		blob := append([]byte(nil), e.blob...)
		c.mu.Unlock()
		return blob, true, nil
	}
	c.mu.Unlock()
	resp, err := c.rpc(message{op: opGet, device: device})
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	if resp.ver > c.vers[device] {
		c.vers[device] = resp.ver
	}
	c.mu.Unlock()
	if !resp.found {
		return nil, false, nil
	}
	return resp.blob, true, nil
}

// Delete removes the device everywhere: the local queue, and on the
// server, where a bumped tombstone version fences every write this or
// any other client could still have queued below it. Synchronous, so a
// rehydrate-consume (Get → restore → Delete) is final once it returns.
func (c *Client) Delete(device string) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	delete(c.dirty, device)
	// Fence the in-flight copy too: if its flush fails it must not be
	// requeued, and if it succeeds the server-side tombstone below still
	// outranks it (the Delete RPC is serialized after the flush RPC).
	if a := c.assigned[device]; a > c.fences[device] {
		c.fences[device] = a
	}
	c.mu.Unlock()
	resp, err := c.rpc(message{op: opDelete, device: device})
	if err != nil {
		return err
	}
	c.mu.Lock()
	if resp.ver > c.vers[device] {
		c.vers[device] = resp.ver
	}
	if resp.ver > c.assigned[device] {
		c.assigned[device] = resp.ver
	}
	c.mu.Unlock()
	return nil
}

// Devices lists every device with state in the tier: the server's view
// merged with this client's still-pending writes.
func (c *Client) Devices() ([]string, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.mu.Unlock()
	resp, err := c.rpc(message{op: opList})
	if err != nil {
		return nil, err
	}
	set := make(map[string]struct{}, len(resp.devices))
	for _, d := range resp.devices {
		set[strings.Clone(d)] = struct{}{}
	}
	c.mu.Lock()
	for d := range c.dirty {
		set[d] = struct{}{}
	}
	for d, e := range c.inflight {
		if c.fences[d] < e.ver {
			set[d] = struct{}{}
		}
	}
	c.mu.Unlock()
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out, nil
}

// Flush synchronously drains the write-behind queue: every dirty and
// in-flight entry is pushed to the server (or its error returned). The
// barrier before a membership change or shutdown.
func (c *Client) Flush() error {
	for {
		c.mu.Lock()
		d, f := len(c.dirty), len(c.inflight)
		c.mu.Unlock()
		if d == 0 && f == 0 {
			return nil
		}
		if d > 0 {
			if err := c.flushOnce(true); err != nil {
				return err
			}
			continue
		}
		// In-flight only: the background flusher's RPC holds rpcMu, so
		// acquiring it is the barrier; by release the entries are either
		// acknowledged or requeued into dirty.
		c.rpcMu.Lock()
		c.rpcMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	}
}

// Close stops the flusher after a final best-effort flush and drops the
// connection. Use Flush first when the final flush must not be
// best-effort. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.done)
	c.wg.Wait()
	c.rpcMu.Lock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.rpcMu.Unlock()
	return nil
}

func (c *Client) flusher() {
	defer c.wg.Done()
	tick := c.cfg.FlushAge / 2
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			c.flushOnce(true) // final best-effort push
			return
		case <-c.kick:
		case <-t.C:
		}
		c.flushOnce(false)
	}
}

// flushOnce pushes the dirty queue as one batched Put. Without force it
// first checks the count/age thresholds. On RPC failure every entry is
// requeued unless a Delete fenced it or a newer Put superseded it; on
// success each entry retires if the server's version in force is at or
// above the sent one (equal: applied; above: superseded — either way the
// write-behind obligation is met).
func (c *Client) flushOnce(force bool) error {
	c.mu.Lock()
	if len(c.dirty) == 0 {
		c.mu.Unlock()
		return nil
	}
	if !force && len(c.dirty) < c.cfg.FlushCount {
		aged, now := false, time.Now()
		for _, e := range c.dirty {
			if now.Sub(e.at) >= c.cfg.FlushAge {
				aged = true
				break
			}
		}
		if !aged {
			c.mu.Unlock()
			return nil
		}
	}
	batch := make([]putEntry, 0, len(c.dirty))
	for d, e := range c.dirty {
		c.inflight[d] = e
		delete(c.dirty, d)
		batch = append(batch, putEntry{device: d, ver: e.ver, blob: e.blob})
	}
	c.mu.Unlock()
	sort.Slice(batch, func(i, j int) bool { return batch[i].device < batch[j].device })

	resp, err := c.rpc(message{op: opPut, puts: batch})
	if err == nil && len(resp.vers) != len(batch) {
		err = fmt.Errorf("statestore: put reply carries %d versions for %d entries", len(resp.vers), len(batch))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		for _, p := range batch {
			e := c.inflight[p.device]
			if e == nil || e.ver != p.ver {
				continue
			}
			delete(c.inflight, p.device)
			if c.fences[p.device] >= p.ver {
				continue // deleted while in flight
			}
			if cur, ok := c.dirty[p.device]; ok && cur.ver > p.ver {
				continue // superseded by a newer Put
			}
			c.dirty[p.device] = e // requeue with original arrival time
		}
		c.flushFailures.Add(1)
		return err
	}
	for i, p := range batch {
		if e := c.inflight[p.device]; e != nil && e.ver == p.ver {
			delete(c.inflight, p.device)
		}
		cur := resp.vers[i]
		if cur > c.vers[p.device] {
			c.vers[p.device] = cur
		}
		if cur > c.assigned[p.device] {
			c.assigned[p.device] = cur
		}
		if cur > p.ver {
			c.staleDrops.Add(1)
		}
	}
	c.flushes.Add(1)
	c.flushedPuts.Add(uint64(len(batch)))
	return nil
}

// rpc performs one synchronous request/reply, redialing with exponential
// backoff on transport failures. An in-band opErr reply is a server
// decision, returned without retry. Safe to retry every op: Get, Delete
// and List are idempotent, and Put is made so by the versioning.
func (c *Client) rpc(req message) (message, error) {
	c.rpcMu.Lock()
	defer c.rpcMu.Unlock()
	var lastErr error
	for attempt := 0; attempt <= c.cfg.RetryAttempts; attempt++ {
		if attempt > 0 {
			delay := c.cfg.RetryBaseDelay << (attempt - 1)
			if delay > c.cfg.RetryMaxDelay || delay <= 0 {
				delay = c.cfg.RetryMaxDelay
			}
			time.Sleep(delay)
		}
		resp, err := c.attempt(req)
		if err == nil {
			return resp, nil
		}
		var srvErr *serverError
		if errors.As(err, &srvErr) {
			// In-band server decision: deterministic, don't retry.
			return message{}, err
		}
		lastErr = err
		if c.conn != nil {
			c.conn.Close()
			c.conn = nil
		}
	}
	return message{}, fmt.Errorf("statestore: %s unreachable after %d attempts: %w",
		c.addr, c.cfg.RetryAttempts+1, lastErr)
}

// attempt runs one request on the current connection (dialing if
// needed); the caller holds rpcMu.
func (c *Client) attempt(req message) (message, error) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
		if err != nil {
			return message{}, err
		}
		c.conn = conn
		c.br = bufio.NewReader(conn)
	}
	c.seq++
	req.seq = c.seq
	frame, err := appendMessage(weblog.AppendFrameHeader(c.scratch[:0]), req)
	if err != nil {
		return message{}, err
	}
	c.scratch = frame[:0]
	if err := weblog.FinishFrame(frame); err != nil {
		return message{}, fmt.Errorf("statestore: %w", err)
	}
	c.conn.SetDeadline(time.Now().Add(c.cfg.RPCTimeout))
	if _, err := c.conn.Write(frame); err != nil {
		return message{}, err
	}
	// Fresh buffer per reply: decoded blobs alias it, and Get hands the
	// blob to the caller.
	raw, err := weblog.ReadFrame(c.br, nil)
	if err != nil {
		return message{}, err
	}
	resp, err := decodeMessage(raw)
	if err != nil {
		return message{}, err
	}
	if resp.op == opErr {
		// The server drops the connection after an in-band error, so
		// ours is stale either way.
		c.conn.Close()
		c.conn = nil
		return message{}, &serverError{msg: strings.Clone(resp.errMsg)}
	}
	if resp.seq != req.seq {
		return message{}, fmt.Errorf("statestore: reply seq %d for request %d", resp.seq, req.seq)
	}
	return resp, nil
}
