package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// Router replication. Routers are stateless by design — placement is a
// pure function of the membership view (rendezvous hashing; membership
// changes are all or nothing, so no settled route disagrees with the
// hash), and the devices themselves are discoverable from the nodes
// (List) — so any number of router replicas can front the same cluster.
// The one thing replicas must agree on is the versioned membership view,
// which they reconcile by exchanging GossipState: the higher version
// wins, so replicas converge under any interleaving of exchanges.

// GossipState is one router's shareable state: its versioned membership
// view. A gossip exchange is symmetric anti-entropy — the request carries
// the caller's view, the ok reply the responder's, and each side adopts
// the other's when it is newer. Older builds also sent an override table
// (an "overrides" field); decoding ignores it.
type GossipState struct {
	Membership Membership `json:"membership"`
}

// Gossip snapshots this router's shareable state: the versioned
// membership.
func (r *Router) Gossip() GossipState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return GossipState{Membership: r.viewLocked()}
}

// viewLocked is the committed view: a member whose join is in flight is
// not in it yet, and one whose removal is in flight still is.
func (r *Router) viewLocked() Membership {
	m := Membership{Version: r.version}
	for _, h := range r.nodes {
		if !h.joining {
			m.Members = append(m.Members, h.member)
		}
	}
	sort.Slice(m.Members, func(i, j int) bool { return m.Members[i].Name < m.Members[j].Name })
	return m
}

// MergeGossip reconciles a peer's state into this router and returns
// this router's (post-merge) state, so one exchange converges both ends.
// A membership view with a strictly higher version is adopted wholesale:
// missing members are dialed, departed members dropped, and —
// deliberately — nothing is moved: rebalancing is the job of the router
// that ran the membership change; a replica merely catching up must not
// move state. A dial failure rejects the adoption (the old view stands)
// and surfaces in the error.
func (r *Router) MergeGossip(g GossipState) (GossipState, error) {
	statGossipRounds.Add(1)
	err := r.adoptMembership(g.Membership)
	return r.Gossip(), err
}

// adoptMembership installs a strictly newer membership view without
// rebalancing.
func (r *Router) adoptMembership(m Membership) error {
	r.balMu.Lock()
	defer r.balMu.Unlock()

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClientClosed
	}
	if m.Version <= r.version {
		r.mu.Unlock()
		return nil
	}
	current := make(map[string]Member, len(r.nodes))
	for name, h := range r.nodes {
		current[name] = h.member
	}
	r.mu.Unlock()

	// Dial additions outside the lock; all must succeed before anything
	// is installed, so a half-reachable view never replaces a working one.
	added := make(map[string]*nodeHandle)
	abort := func() {
		for _, h := range added {
			h.client.Close()
		}
	}
	for _, mem := range m.Members {
		if known, ok := current[mem.Name]; ok && known.Addr == mem.Addr {
			continue
		}
		client, err := r.dialMember(mem)
		if err != nil {
			abort()
			return fmt.Errorf("cluster: adopting membership v%d: %w", m.Version, err)
		}
		added[mem.Name] = &nodeHandle{member: mem, client: client}
	}

	keep := make(map[string]bool, len(m.Members))
	for _, mem := range m.Members {
		keep[mem.Name] = true
	}
	var closing []*nodeHandle
	r.mu.Lock()
	if m.Version <= r.version { // raced with a local membership change
		r.mu.Unlock()
		abort()
		return nil
	}
	for name, h := range added {
		if old := r.nodes[name]; old != nil {
			closing = append(closing, old) // readdressed member
		}
		r.nodes[name] = h
	}
	for name, h := range r.nodes {
		if !keep[name] {
			closing = append(closing, h)
			delete(r.nodes, name)
		}
	}
	r.version = m.Version
	r.mu.Unlock()
	statViewAdoptions.Add(1)
	for _, h := range closing {
		h.client.Close()
	}
	return nil
}

// GossipServer accepts gossip exchanges for one router over the frame
// protocol: each inbound gossip frame is merged and answered with the
// router's own state (FrameOK carrying GossipState).
type GossipServer struct {
	router *Router
	ln     net.Listener
	wg     sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// ServeGossip starts a gossip listener for the router on addr (e.g.
// "127.0.0.1:0").
func ServeGossip(r *Router, addr string) (*GossipServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &GossipServer{router: r, ln: ln}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address.
func (s *GossipServer) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting and waits for in-flight exchanges.
func (s *GossipServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *GossipServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

func (s *GossipServer) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		conn.SetReadDeadline(time.Now().Add(time.Minute))
		f, err := ReadFrame(br)
		if err != nil {
			return
		}
		reply := Frame{Seq: f.Seq}
		if f.Type != FrameGossip || f.Gossip == nil {
			reply.Type = FrameError
			reply.Error = fmt.Sprintf("gossip endpoint got %q frame", f.Type)
		} else {
			state, err := s.router.MergeGossip(*f.Gossip)
			reply.Type = FrameOK
			reply.Gossip = &state
			if err != nil {
				// The reply still carries this router's view (the old one
				// kept); the error travels in-band so the peer knows its
				// view was not adopted.
				reply.Type = FrameError
				reply.Error = err.Error()
				reply.Gossip = &state
			}
		}
		conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if err := WriteFrame(bw, reply); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// GossipWith runs one exchange against a peer router's gossip listener:
// sends this router's state, merges the peer's reply. One successful
// call converges both replicas' membership views.
func (r *Router) GossipWith(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("cluster: gossip dial %s: %w", addr, err)
	}
	defer conn.Close()
	own := r.Gossip()
	bw := bufio.NewWriter(conn)
	conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	if err := WriteFrame(bw, Frame{Type: FrameGossip, Seq: 1, Gossip: &own}); err != nil {
		return fmt.Errorf("cluster: gossip to %s: %w", addr, err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("cluster: gossip to %s: %w", addr, err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Minute))
	reply, err := ReadFrame(bufio.NewReader(conn))
	if err != nil {
		return fmt.Errorf("cluster: gossip reply from %s: %w", addr, err)
	}
	var peerErr error
	if reply.Type == FrameError {
		peerErr = fmt.Errorf("cluster: gossip peer %s: %s", addr, reply.Error)
	}
	if reply.Gossip != nil {
		if _, err := r.MergeGossip(*reply.Gossip); err != nil {
			return errors.Join(peerErr, err)
		}
	}
	return peerErr
}
