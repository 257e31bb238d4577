package statestore

import (
	"bufio"
	"fmt"
	"log"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webtxprofile/internal/core"
	"webtxprofile/internal/weblog"
)

// ServerConfig configures a state server; the zero value works.
type ServerConfig struct {
	// Backing, when non-nil, persists every accepted write through an
	// ordinary core.StateStore (a DiskStateStore directory makes the
	// tier durable across server restarts). Blobs are stored wrapped in
	// a small envelope carrying the device's version, so the monotonic
	// fence survives the restart. A backing blob without the envelope
	// (say, a plain -state-dir daemon's file) is deleted at start, not
	// loaded.
	// Backing failures are logged and do not fail the in-memory apply:
	// the tier stays available and the durability is best-effort, like
	// the monitor's own spill fallback.
	Backing core.StateStore
	// WriteTimeout bounds each reply write (default 30s).
	WriteTimeout time.Duration
	// ErrorLog receives per-connection and backing-store errors
	// (default log.Default()).
	ErrorLog *log.Logger
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.ErrorLog == nil {
		c.ErrorLog = log.Default()
	}
	return c
}

// entry is one device's authoritative record. blob == nil is a
// tombstone: no state, but the version still fences stale writes.
type entry struct {
	ver  uint64
	blob []byte
}

// ServerStats counts protocol operations since the server started;
// StaleDrops is the versioning fence doing its job (a Put at or below
// the version in force, dropped).
type ServerStats struct {
	Puts       uint64
	StaleDrops uint64
	Gets       uint64
	GetHits    uint64
	Deletes    uint64
	Lists      uint64
}

// Server is the state tier's authoritative side: per-device versioned
// blobs in memory, optional write-through to a backing store, one
// goroutine per connection.
type Server struct {
	cfg ServerConfig
	ln  net.Listener
	wg  sync.WaitGroup

	puts, staleDrops, gets, getHits, deletes, lists atomic.Uint64

	mu      sync.Mutex
	entries map[string]*entry
	conns   map[net.Conn]struct{}
	closed  bool
}

// ListenServer starts a state server on addr ("host:0" picks a port).
// With a Backing store, the existing device states are loaded eagerly so
// warm restores hit memory.
func ListenServer(addr string, cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		entries: make(map[string]*entry),
		conns:   make(map[net.Conn]struct{}),
	}
	if cfg.Backing != nil {
		devices, err := cfg.Backing.Devices()
		if err != nil {
			return nil, fmt.Errorf("statestore: listing backing store: %w", err)
		}
		dropped := 0
		for _, d := range devices {
			raw, ok, err := cfg.Backing.Get(d)
			if err != nil {
				return nil, fmt.Errorf("statestore: loading device %s from backing store: %w", d, err)
			}
			if !ok {
				continue
			}
			ver, blob, ok := decodeEnvelope(raw)
			if !ok {
				if err := cfg.Backing.Delete(d); err != nil {
					return nil, fmt.Errorf("statestore: dropping unversioned device %s from backing store: %w", d, err)
				}
				dropped++
				continue
			}
			s.entries[d] = &entry{ver: ver, blob: append([]byte(nil), blob...)}
		}
		if dropped > 0 {
			cfg.ErrorLog.Printf("statestore: dropped %d backing blobs without a version envelope; those devices start fresh", dropped)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("statestore: listening on %s: %w", addr, err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Len reports how many devices currently hold state (tombstones
// excluded).
func (s *Server) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.entries {
		if e.blob != nil {
			n++
		}
	}
	return n
}

// Stats returns an operation-count snapshot.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Puts:       s.puts.Load(),
		StaleDrops: s.staleDrops.Load(),
		Gets:       s.gets.Load(),
		GetHits:    s.getHits.Load(),
		Deletes:    s.deletes.Load(),
		Lists:      s.lists.Load(),
	}
}

// Close stops the listener and every connection. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	var readBuf, writeBuf []byte
	for {
		payload, err := weblog.ReadFrame(br, readBuf)
		if err != nil {
			return // EOF and read errors both just end the connection
		}
		readBuf = payload[:0]
		req, err := decodeMessage(payload)
		var resp message
		if err != nil {
			// Can't trust the stream past a malformed frame: answer
			// in-band (seq 0) and drop the connection.
			resp = message{op: opErr, seq: 0, errMsg: err.Error()}
		} else {
			resp = s.dispatch(req)
		}
		out, encErr := appendMessage(weblog.AppendFrameHeader(writeBuf[:0]), resp)
		if encErr != nil {
			s.cfg.ErrorLog.Printf("statestore: encoding reply: %v", encErr)
			return
		}
		writeBuf = out[:0]
		if weblog.FinishFrame(out) != nil {
			return // a reply beyond the frame bound cannot be sent
		}
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if _, werr := conn.Write(out); werr != nil {
			return
		}
		if err != nil {
			return
		}
	}
}

func (s *Server) dispatch(req message) message {
	switch req.op {
	case opPut:
		return s.applyPut(req)
	case opGet:
		return s.applyGet(req)
	case opDelete:
		return s.applyDelete(req)
	case opList:
		return s.applyList(req)
	default:
		return message{op: opErr, seq: req.seq, errMsg: fmt.Sprintf("unexpected op 0x%02x", req.op)}
	}
}

// applyPut applies each entry iff its version is strictly greater than
// the one in force, and replies with the per-device version now in
// force: equal to the sent version means applied, greater means a newer
// write (or a tombstone) superseded this one and it was dropped.
func (s *Server) applyPut(req message) message {
	vers := make([]uint64, len(req.puts))
	s.mu.Lock()
	for i, p := range req.puts {
		e := s.entries[p.device]
		if e == nil {
			e = &entry{}
			// Clone the key: p.device aliases the connection's read
			// buffer, which the next frame overwrites.
			s.entries[strings.Clone(p.device)] = e
		}
		if p.ver > e.ver {
			e.ver = p.ver
			e.blob = append(e.blob[:0:0], p.blob...) // p.blob aliases the read buffer too
			s.persist(p.device, e)
			s.puts.Add(1)
		} else {
			s.staleDrops.Add(1)
		}
		vers[i] = e.ver
	}
	s.mu.Unlock()
	return message{op: opPutOK, seq: req.seq, vers: vers}
}

func (s *Server) applyGet(req message) message {
	s.gets.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[req.device]
	if e == nil || e.blob == nil {
		var ver uint64
		if e != nil {
			ver = e.ver
		}
		return message{op: opGetOK, seq: req.seq, found: false, ver: ver}
	}
	s.getHits.Add(1)
	return message{op: opGetOK, seq: req.seq, found: true, ver: e.ver, blob: e.blob}
}

// applyDelete drops the blob but keeps a tombstone at the bumped
// version: the fence that makes a new owner's rehydrate-consume final
// against the old owner's still-queued writes. Deleting an absent
// device plants a version-1 tombstone, harmlessly.
func (s *Server) applyDelete(req message) message {
	s.deletes.Add(1)
	s.mu.Lock()
	e := s.entries[req.device]
	if e == nil {
		e = &entry{}
		s.entries[strings.Clone(req.device)] = e // the key must not alias the read buffer
	}
	e.ver++
	e.blob = nil
	if s.cfg.Backing != nil {
		if err := s.cfg.Backing.Delete(req.device); err != nil {
			s.cfg.ErrorLog.Printf("statestore: backing delete of device %s: %v", req.device, err)
		}
	}
	ver := e.ver
	s.mu.Unlock()
	return message{op: opDeleteOK, seq: req.seq, ver: ver}
}

func (s *Server) applyList(req message) message {
	s.lists.Add(1)
	s.mu.Lock()
	devices := make([]string, 0, len(s.entries))
	for d, e := range s.entries {
		if e.blob != nil {
			devices = append(devices, d)
		}
	}
	s.mu.Unlock()
	sort.Strings(devices)
	return message{op: opListOK, seq: req.seq, devices: devices}
}

// persist writes one accepted entry through the backing store (under
// s.mu; best-effort — see ServerConfig.Backing).
func (s *Server) persist(device string, e *entry) {
	if s.cfg.Backing == nil {
		return
	}
	enveloped := appendEnvelope(make([]byte, 0, len(e.blob)+16), e.ver, e.blob)
	// Clone the key: device aliases the connection's read buffer, which a
	// store that keeps its keys (DiskStateStore does) must not hold.
	if err := s.cfg.Backing.Put(strings.Clone(device), enveloped); err != nil {
		s.cfg.ErrorLog.Printf("statestore: backing put of device %s: %v", device, err)
	}
}
