package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"webtxprofile/internal/weblog"
)

// Member is one node of the cluster as the router sees it.
type Member struct {
	// Name is the node's cluster name — the rendezvous-hash identity.
	// Renaming a node reshuffles its devices; readdressing it does not.
	Name string
	// Addr is the node's TCP address.
	Addr string
}

// Membership is the router's versioned view of the cluster. Version
// increments on every effective AddNode/RemoveNode; duplicate events
// (adding a present member, removing an absent one) change nothing and
// keep the version, which is what makes membership delivery idempotent.
type Membership struct {
	Version int
	Members []Member // sorted by name
}

// RouterConfig tunes the router. The zero value selects the defaults.
type RouterConfig struct {
	// DrainBatch caps the transactions replayed per RPC when a drained
	// device's buffered backlog is flushed to its new owner (default 256).
	DrainBatch int
	// RouteIdleTTL bounds the routing table: a device idle for longer (in
	// stream time, mirroring the monitor's IdleTTL) has its route swept.
	// Sweeping is safe because a route never disagrees with the device's
	// effective owner once settled — overrides, which do carry placement
	// memory, are kept separately and survive the sweep. 0 disables.
	RouteIdleTTL time.Duration
	// Client configures the per-node connections (reconnect schedule,
	// replay depth, client identity prefix).
	Client ClientConfig
	// SharedState has no effect: every node runs on the shared state
	// tier and parks the devices a drain moves there itself.
	//
	// Deprecated: leave it unset.
	SharedState bool
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.DrainBatch <= 0 {
		c.DrainBatch = 256
	}
	return c
}

// Router is the cluster front end: it places every device on a member
// node by rendezvous (highest-random-weight) hashing over the current
// membership view, forwards transactions to the owning node's monitor,
// and rebalances on membership changes by draining only the devices whose
// placement changed.
//
// Placement guarantees:
//
//   - A device's owner is the member with the highest rendezvous score
//     for it, so placement is stable: AddNode moves only devices whose
//     top score shifts to the new node (an expected 1/n of them), and
//     RemoveNode moves only the removed node's devices. No other device
//     is touched by a membership change.
//   - The routing table is authoritative over the hash: if a drain fails
//     (the source refused the park, or the destination did not answer),
//     the affected devices stay routed to their old owner — placement
//     degrades, state does not.
//
// Drain guarantees:
//
//   - A drained device's identification state travels whole: window
//     buffer, consecutive-accept streaks, confirmed identity and
//     last-seen stamp (a core.DeviceState), parked in the shared state
//     tier by the old owner and rehydrated by the new one.
//   - Transactions arriving for a device mid-drain are buffered and
//     replayed to the new owner after the park, in arrival order, so no
//     window or streak is lost or reordered. Devices not being drained
//     keep feeding live throughout.
//   - The old owner's alerts for a drained device are all delivered
//     before the new owner's (the park reply is ordered after the alerts
//     on the node connection), so per-device alert order is preserved
//     across the move — the cluster-equivalence property the clustertest
//     suites assert.
//
// Feed, FeedBatch and membership changes may be called concurrently;
// transactions for one device must come from one goroutine at a time (the
// monitor's own contract). Rebalances are serialized internally.
type Router struct {
	alerts func(NodeAlert)
	cfg    RouterConfig

	// balMu serializes AddNode/RemoveNode so at most one rebalance is in
	// flight: drains assume no route is already draining when they mark
	// theirs.
	balMu sync.Mutex

	// mu guards the fields below. Lock order: a node handle's mu, when
	// held together with mu, is always acquired first — nothing waits for
	// a handle while holding mu.
	mu        sync.Mutex
	version   int
	nodes     map[string]*nodeHandle
	routes    map[string]*route
	overrides OverrideTable
	clock     int64 // router-wide stream clock: max tx timestamp routed, unix nanos
	lastSweep int64 // stream-clock stamp of the last idle-route sweep
	closed    bool
}

// nodeHandle is the router's connection to one member. Its mu serializes
// every RPC to the node, which is what makes a drain safe: once the
// drainer holds it, no previously-routed transaction is still in flight
// to that node.
type nodeHandle struct {
	member  Member
	mu      sync.Mutex
	client  *NodeClient
	leaving bool
}

// route is the authoritative placement of one device. While draining,
// arriving transactions accumulate in buf and are replayed by the drainer.
type route struct {
	node     string
	draining bool
	// parked marks a device a membership change settled on node with no
	// transaction replayed to it: its state waits in the state tier until
	// the next one, or until Flush rehydrates it.
	parked bool
	buf    []weblog.Transaction
	lastTs int64 // stream-clock stamp of the device's last routed transaction
}

// NewRouter creates a router with no members. alerts receives every
// identity transition from every node, tagged with its origin; it runs on
// the per-node receive goroutines and must be safe for concurrent use and
// non-blocking. Add at least one node before feeding.
func NewRouter(alerts func(NodeAlert), cfg RouterConfig) *Router {
	if alerts == nil {
		alerts = func(NodeAlert) {}
	}
	return &Router{
		alerts: alerts,
		cfg:    cfg.withDefaults(),
		nodes:  make(map[string]*nodeHandle),
		routes: make(map[string]*route),
	}
}

// View returns the current versioned membership.
func (r *Router) View() Membership {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.viewLocked()
}

// Owner reports which node a device is currently routed to (ok=false for
// a device the router has never seen).
func (r *Router) Owner(device string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rt, ok := r.routes[device]
	if !ok {
		return "", false
	}
	return rt.node, true
}

// Devices returns the number of devices the router has placed.
func (r *Router) Devices() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.routes)
}

// Close disconnects from every node. Nodes keep running — closing the
// front end must not destroy the cluster's identification state.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	handles := make([]*nodeHandle, 0, len(r.nodes))
	for _, h := range r.nodes {
		handles = append(handles, h)
	}
	r.mu.Unlock()
	var errs []error
	for _, h := range handles {
		if err := h.client.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Flush asks every node to complete pending windows and deliver all
// outstanding alerts (end-of-stream semantics); every resulting alert has
// been handed to the router's callback when Flush returns. Devices a
// membership change moved and nothing has fed since are rehydrated on
// their owners first, so their pending windows complete too. Call it
// once feeding has stopped.
func (r *Router) Flush() error {
	r.mu.Lock()
	handles := make([]*nodeHandle, 0, len(r.nodes))
	for _, h := range r.nodes {
		handles = append(handles, h)
	}
	parked := make(map[string][]string)
	for device, rt := range r.routes {
		if rt.parked {
			parked[rt.node] = append(parked[rt.node], device)
		}
	}
	r.mu.Unlock()
	var errs []error
	for _, h := range handles {
		devices := parked[h.member.Name]
		h.mu.Lock()
		err := h.client.Flush(devices...)
		h.mu.Unlock()
		if err != nil {
			errs = append(errs, fmt.Errorf("cluster: flushing node %s: %w", h.member.Name, err))
			continue
		}
		r.mu.Lock()
		for _, d := range devices {
			if rt := r.routes[d]; rt != nil && rt.node == h.member.Name {
				rt.parked = false
			}
		}
		r.mu.Unlock()
	}
	return errors.Join(errs...)
}

// Sync blocks until every transaction routed so far has been processed
// by its owner node — and every alert those transactions raised has been
// handed to this router's fan-in callback — without completing any
// window (unlike Flush, which is end-of-stream). This is the barrier a
// replica handoff needs: after Sync, a second router can take over the
// stream knowing none of this router's queued feeds will land later and
// reorder a device's window. It rides the stats RPC — the node orders
// its reply after every feed frame already received on the connection
// and drains its alert outbox first.
func (r *Router) Sync() error {
	r.mu.Lock()
	handles := make([]*nodeHandle, 0, len(r.nodes))
	for _, h := range r.nodes {
		handles = append(handles, h)
	}
	r.mu.Unlock()
	var errs []error
	for _, h := range handles {
		h.mu.Lock()
		_, err := h.client.Devices()
		h.mu.Unlock()
		if err != nil {
			errs = append(errs, fmt.Errorf("cluster: syncing node %s: %w", h.member.Name, err))
		}
	}
	return errors.Join(errs...)
}

// hrwScore is the rendezvous weight of placing device on node: FNV-1a
// over device then node (NUL-separated) pushed through a splitmix64
// finalizer. The finalizer matters: raw FNV-1a diffuses so weakly that
// the *comparison* of two scores is correlated across keys sharing a
// suffix — with similar node names, whole device ranges land on one node.
// Deterministic across processes so an operator can predict placement.
func hrwScore(node, device string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(device))
	h.Write([]byte{0})
	h.Write([]byte(node))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ownerLocked picks the highest-scoring non-leaving member for a device
// ("" when there are none). Ties break to the lexicographically smaller
// name so placement is total and deterministic.
func (r *Router) ownerLocked(device string) string {
	best, bestScore := "", uint64(0)
	for name, h := range r.nodes {
		if h.leaving {
			continue
		}
		s := hrwScore(name, device)
		if best == "" || s > bestScore || (s == bestScore && name < best) {
			best, bestScore = name, s
		}
	}
	return best
}

// effectiveOwnerLocked is ownerLocked with the override table applied:
// an override pinning the device to a live, non-leaving member wins over
// the hash. Overrides are the only placement state router replicas
// share, so this — not ownerLocked — is what placement decisions use;
// pure hash owners matter only as drain *targets*.
func (r *Router) effectiveOwnerLocked(device string) string {
	if pin, ok := r.overrides.Get(device); ok {
		if h := r.nodes[pin]; h != nil && !h.leaving {
			return pin
		}
	}
	return r.ownerLocked(device)
}

// routeLocked returns the device's route, placing it by effective owner
// (override-aware rendezvous hash) on first sight — or re-placing it
// after an idle sweep, which lands on the same node: settle() pins every
// route that disagrees with the pure hash as an override before the
// route can be swept. Returns nil when the cluster has no usable
// members.
func (r *Router) routeLocked(device string) *route {
	if rt, ok := r.routes[device]; ok {
		if rt.draining || r.nodes[rt.node] != nil {
			return rt
		}
		// The recorded owner is gone (a failed drain settled onto a node
		// that then disappeared): re-place the device fresh.
		delete(r.routes, device)
	}
	owner := r.effectiveOwnerLocked(device)
	if owner == "" {
		return nil
	}
	rt := &route{node: owner, lastTs: r.clock}
	r.routes[device] = rt
	return rt
}

// maybeSweepRoutesLocked drops routes idle past RouteIdleTTL, amortized
// to one pass per TTL of stream time. Only settled, empty routes go;
// draining routes and buffered backlogs are live rebalance state. The
// override table is untouched: it is the placement memory that makes
// re-placing a swept route deterministic.
func (r *Router) maybeSweepRoutesLocked() {
	ttl := int64(r.cfg.RouteIdleTTL)
	if ttl <= 0 || r.clock == 0 {
		return
	}
	if r.lastSweep == 0 {
		r.lastSweep = r.clock
		return
	}
	if r.clock-r.lastSweep < ttl {
		return
	}
	r.lastSweep = r.clock
	for device, rt := range r.routes {
		if !rt.draining && len(rt.buf) == 0 && r.clock-rt.lastTs > ttl {
			delete(r.routes, device)
		}
	}
}

// errNoMembers reports feeding an empty cluster.
var errNoMembers = errors.New("cluster: router has no member nodes")

// Feed routes one transaction to its device's owner. A transaction for a
// device mid-drain is buffered and replayed after the move; Feed
// returns immediately for it (its feed error, if any, surfaces from the
// membership call driving the drain). Feed is FeedBatch for one
// transaction — the routing, buffering and recheck rules are identical
// by construction.
func (r *Router) Feed(tx weblog.Transaction) error {
	return r.FeedBatch([]weblog.Transaction{tx})
}

// FeedBatch routes a batch, partitioning it per owning node and feeding
// each node its sub-batch in one RPC. Per-device transaction order is
// preserved (a device's transactions share one partition and are sent in
// slice order); transactions for devices mid-drain are buffered exactly
// like Feed's.
func (r *Router) FeedBatch(txs []weblog.Transaction) error {
	var errs []error
	pending := txs
	for rounds := 0; len(pending) > 0; rounds++ {
		if rounds > len(txs)+2 {
			// Each round either feeds, buffers, or re-routes after an
			// observed topology change; this bound is unreachable without
			// a livelock bug.
			errs = append(errs, fmt.Errorf("cluster: batch routing did not settle after %d rounds", rounds))
			break
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			errs = append(errs, ErrClientClosed)
			break
		}
		groups := make(map[string][]weblog.Transaction)
		for _, tx := range pending {
			rt := r.routeLocked(tx.SourceIP)
			if rt == nil {
				r.mu.Unlock()
				return errors.Join(append(errs, errNoMembers)...)
			}
			if ts := tx.Timestamp.UnixNano(); ts > r.clock {
				r.clock = ts
			}
			if r.clock > rt.lastTs {
				rt.lastTs = r.clock
			}
			if rt.draining {
				rt.buf = append(rt.buf, tx)
				continue
			}
			groups[rt.node] = append(groups[rt.node], tx)
		}
		r.maybeSweepRoutesLocked()
		r.mu.Unlock()
		pending = nil
		// Deterministic node order keeps joined errors stable.
		names := make([]string, 0, len(groups))
		for name := range groups {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			group := groups[name]
			r.mu.Lock()
			h := r.nodes[name]
			r.mu.Unlock()
			if h == nil {
				pending = append(pending, group...) // node left; re-route
				continue
			}
			h.mu.Lock()
			r.mu.Lock()
			send := group[:0]
			for _, tx := range group {
				rt := r.routes[tx.SourceIP]
				switch {
				case rt == nil || rt.node != name:
					pending = append(pending, tx) // moved; re-route
				case rt.draining:
					rt.buf = append(rt.buf, tx)
				default:
					rt.parked = false
					send = append(send, tx)
				}
			}
			r.mu.Unlock()
			if len(send) > 0 {
				if err := h.client.Feed(send); err != nil {
					errs = append(errs, fmt.Errorf("cluster: feeding node %s: %w", name, err))
				}
			}
			h.mu.Unlock()
		}
	}
	return errors.Join(errs...)
}

// AddNode joins a member and rebalances: exactly the devices whose
// rendezvous placement moves to the new node are drained from their
// current owners (parked in the state tier, transactions buffered and
// replayed there). Adding an already-present member with the same address
// is an idempotent no-op; the same name at a different address is an
// error (drop the old member first). A node that cannot park — one with
// no state tier, or from a build that predates parking — is refused
// before it joins. If a drain fails, those devices stay on their old
// owner with nothing lost, and AddNode reports the failure while the
// membership (already extended) stands.
func (r *Router) AddNode(m Member) error {
	if m.Name == "" || m.Addr == "" {
		return fmt.Errorf("cluster: member needs name and addr, got %+v", m)
	}
	r.balMu.Lock()
	defer r.balMu.Unlock()

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClientClosed
	}
	if h, ok := r.nodes[m.Name]; ok {
		known := h.member
		r.mu.Unlock()
		if known.Addr == m.Addr {
			return nil // duplicate membership event: idempotent
		}
		return fmt.Errorf("cluster: member %s already at %s (got %s)", m.Name, known.Addr, m.Addr)
	}
	r.mu.Unlock()

	client, err := r.dialMember(m)
	if err != nil {
		return err
	}
	// Every device move goes through the state tier, so a member must be
	// able to park: an empty park is the probe.
	if _, err := client.Park(nil); err != nil {
		client.Close()
		return fmt.Errorf("cluster: member %s cannot park devices (every node must run on the state tier, from this build): %w", m.Name, err)
	}
	h := &nodeHandle{member: m, client: client}

	// Discover where every device lives before the view changes: the
	// routing table plus what each node reports holding (List). The union
	// is what makes a fresh router replica — whose routing table is empty
	// — drain correctly: placement lives on the nodes, not in this
	// process.
	placement := r.discoverPlacement()

	r.mu.Lock()
	r.nodes[m.Name] = h
	r.version++
	// Devices whose effective placement moved to the new node drain from
	// their current owners. Overridden devices are pinned and stay put;
	// balMu guarantees none is mid-drain.
	moves := make(map[string][]string)
	for device, cur := range placement {
		if rt, ok := r.routes[device]; ok {
			cur = rt.node // the routing table is authoritative over List
		}
		if cur == m.Name || r.effectiveOwnerLocked(device) != m.Name {
			continue
		}
		rt, ok := r.routes[device]
		if !ok {
			rt = &route{node: cur, lastTs: r.clock}
			r.routes[device] = rt
		}
		rt.draining = true
		moves[cur] = append(moves[cur], device)
	}
	r.mu.Unlock()

	var errs []error
	for _, src := range sortedKeys(moves) {
		if _, err := r.drain(src, m.Name, moves[src], false); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// dialMember opens the router's connection to one member, with the
// router's client config and alert fan-in.
func (r *Router) dialMember(m Member) (*NodeClient, error) {
	cfg := r.cfg.Client
	if cfg.ClientID != "" {
		// Distinct per-node dedup identities under one configured prefix.
		cfg.ClientID = cfg.ClientID + "/" + m.Name
	}
	return DialNodeConfig(m.Addr, r.tagged(m.Name), cfg)
}

// discoverPlacement maps every known device to the node currently
// holding it: each live member's List report, first-seen wins in sorted
// node order, then the routing table on top (routes are authoritative —
// a mid-settle device may be listed by two nodes for an instant). A
// member that cannot answer contributes nothing: its devices stay where
// they are anyway.
func (r *Router) discoverPlacement() map[string]string {
	r.mu.Lock()
	handles := make([]*nodeHandle, 0, len(r.nodes))
	for _, h := range r.nodes {
		if !h.leaving {
			handles = append(handles, h)
		}
	}
	r.mu.Unlock()
	sort.Slice(handles, func(i, j int) bool { return handles[i].member.Name < handles[j].member.Name })

	placement := make(map[string]string)
	for _, h := range handles {
		h.mu.Lock()
		names, err := h.client.List()
		h.mu.Unlock()
		if err != nil {
			continue
		}
		for _, d := range names {
			if _, ok := placement[d]; !ok {
				placement[d] = h.member.Name
			}
		}
	}
	r.mu.Lock()
	for device, rt := range r.routes {
		placement[device] = rt.node
	}
	r.mu.Unlock()
	return placement
}

// RemoveNode drains every device off a member (each to its rendezvous
// owner among the remaining members) and drops it from the view. Removing
// an unknown member is an idempotent no-op; removing the last member is
// an error. If the leaving node refuses a park, or a destination does not
// answer, the affected devices settle back on the leaving node and the
// removal is aborted — the node stays a member — so state is never
// stranded on a closed connection.
func (r *Router) RemoveNode(name string) error {
	r.balMu.Lock()
	defer r.balMu.Unlock()

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClientClosed
	}
	h, ok := r.nodes[name]
	if !ok {
		r.mu.Unlock()
		return nil // duplicate membership event: idempotent
	}
	live := 0
	for _, other := range r.nodes {
		if !other.leaving {
			live++
		}
	}
	if live <= 1 {
		r.mu.Unlock()
		return fmt.Errorf("cluster: cannot remove %s: it is the last member", name)
	}
	h.leaving = true // new devices stop placing here
	r.mu.Unlock()

	// The leaving node's full holdings, not just what this router has
	// routed: swept routes and devices fed through a replica still live
	// there and must drain. Unreachable node → empty report → the routes
	// are all we know (and its state is unreachable regardless).
	h.mu.Lock()
	listed, listErr := h.client.List()
	h.mu.Unlock()
	if listErr != nil {
		listed = nil
	}

	r.mu.Lock()
	moves := make(map[string][]string)
	for _, device := range listed {
		if _, ok := r.routes[device]; !ok {
			r.routes[device] = &route{node: name, lastTs: r.clock}
		}
	}
	for device, rt := range r.routes {
		if rt.node != name {
			continue
		}
		dst := r.effectiveOwnerLocked(device) // leaving members never win
		rt.draining = true
		moves[dst] = append(moves[dst], device)
	}
	r.mu.Unlock()

	var errs []error
	aborted := false
	for _, dst := range sortedKeys(moves) {
		fellBack, err := r.drain(name, dst, moves[dst], true)
		if err != nil {
			errs = append(errs, err)
		}
		if fellBack {
			aborted = true
		}
	}
	if aborted {
		// Some devices are back on the leaving node: keep it a member.
		r.mu.Lock()
		h.leaving = false
		r.mu.Unlock()
		return errors.Join(append(errs, fmt.Errorf("cluster: removal of %s aborted, node remains a member", name))...)
	}
	r.mu.Lock()
	delete(r.nodes, name)
	r.version++
	r.mu.Unlock()
	if err := h.client.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// FailNode drops a dead member without draining it: RemoveNode for a
// node that cannot answer. Its devices reroute immediately to their
// rendezvous owners among the remaining members, and buffered
// transactions replay there. Whatever the dead node checkpointed or
// spilled is not lost: each rerouted device rehydrates from the state
// tier at its new owner on its next transaction — failover without a
// park. Devices it held only in memory restart fresh, which is still the
// best available outcome for a dead node. Failing an unknown member is
// an idempotent no-op; failing the last member is an error.
func (r *Router) FailNode(name string) error {
	r.balMu.Lock()
	defer r.balMu.Unlock()

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClientClosed
	}
	h, ok := r.nodes[name]
	if !ok {
		r.mu.Unlock()
		return nil // duplicate membership event: idempotent
	}
	if len(r.nodes) <= 1 {
		r.mu.Unlock()
		return fmt.Errorf("cluster: cannot fail %s: it is the last member", name)
	}
	delete(r.nodes, name)
	r.version++
	// Mark every route on the dead node draining (feeds buffer during
	// the reroute), grouped by the new owner under the shrunk view.
	moves := make(map[string][]string)
	failed := 0
	for device, rt := range r.routes {
		if rt.node != name {
			continue
		}
		rt.draining = true
		dst := r.effectiveOwnerLocked(device)
		moves[dst] = append(moves[dst], device)
		failed++
	}
	r.mu.Unlock()

	// The dead node's connection may still be retrying; cut it loose.
	errs := []error{h.client.Close()}
	for _, dst := range sortedKeys(moves) {
		devices := moves[dst]
		sort.Strings(devices)
		if err := r.settle(devices, dst); err != nil {
			errs = append(errs, err)
		}
	}
	if failed > 0 {
		statFailoverReroutes.Add(uint64(failed))
	}
	return errors.Join(errs...)
}

// drain moves the named devices (already marked draining by the caller)
// from src to dst through the state tier:
//
//  1. Park on src: it spills the devices, flushes its tier client, and
//     delivers their alerts before it replies. The park is idempotent —
//     a retry after a lost reply finds nothing left to spill — so the
//     client retries it across reconnects.
//  2. Confirm dst: an empty park proves it answers and can take devices
//     through the tier.
//  3. Settle the routes on dst, which rehydrates each device from the
//     tier on its next transaction.
//
// If src refuses the park or dst does not answer, the devices settle
// back on src (fellBack=true): parked ones rehydrate there, and the rest
// never left. A leaving src that cannot be reached settles them on dst
// instead, as FailNode would. The tier's per-device version fence is
// what rules out two live copies.
func (r *Router) drain(src, dst string, devices []string, leavingSrc bool) (fellBack bool, err error) {
	sort.Strings(devices)
	r.mu.Lock()
	hs, hd := r.nodes[src], r.nodes[dst]
	r.mu.Unlock()

	hs.mu.Lock()
	parked, parkErr := hs.client.Park(devices)
	hs.mu.Unlock()
	if parkErr != nil {
		if leavingSrc && !errors.Is(parkErr, ErrNodeRefused) {
			// A node that answered with a refusal is alive and keeps the
			// devices, aborting the removal; one that cannot be reached
			// is going away, so its devices move on and resume from the
			// tier wherever it holds them.
			return false, errors.Join(fmt.Errorf("cluster: parking %d devices on leaving %s (moved without it): %w", len(devices), src, parkErr), r.settle(devices, dst))
		}
		statHandoffAborts.Add(1)
		return true, errors.Join(fmt.Errorf("cluster: parking %d devices, kept on %s: %w", len(devices), src, parkErr), r.settle(devices, src))
	}

	hd.mu.Lock()
	_, dstErr := hd.client.Park(nil)
	hd.mu.Unlock()
	if dstErr != nil {
		statHandoffAborts.Add(1)
		return true, errors.Join(fmt.Errorf("cluster: %s did not answer, %d devices kept on %s: %w", dst, len(devices), src, dstErr), r.settle(devices, src))
	}
	statWarmRestores.Add(uint64(parked))
	return false, r.settle(devices, dst)
}

// settle replays the drained devices' buffered transactions to owner
// until the buffers run dry, then reopens the routes there. The loop
// chases feeds that keep arriving mid-replay; each pass replays what
// accumulated during the previous one, and the routes reopen atomically
// with observing all buffers empty.
func (r *Router) settle(devices []string, owner string) error {
	var errs []error
	fed := make(map[string]bool)
	for {
		r.mu.Lock()
		h := r.nodes[owner]
		var pend []weblog.Transaction
		for _, d := range devices {
			if rt := r.routes[d]; rt != nil && len(rt.buf) > 0 {
				pend = append(pend, rt.buf...)
				rt.buf = nil
				fed[d] = true
			}
		}
		if len(pend) == 0 || h == nil {
			for _, d := range devices {
				if rt := r.routes[d]; rt != nil {
					rt.node = owner
					rt.draining = false
					rt.parked = !fed[d]
				}
				// Record the settled placement in the override table when
				// it disagrees with the pure hash, clear it when it
				// agrees. This keeps route == effective owner (what makes
				// the idle-route sweep safe) and is the only placement
				// state router replicas gossip to each other.
				pure := r.ownerLocked(d)
				pin, pinned := r.overrides.Get(d)
				switch {
				case owner != pure && (!pinned || pin != owner):
					r.overrides.Set(Override{Device: d, Node: owner, Ver: r.overrides.MaxVer() + 1})
				case owner == pure && pinned:
					r.overrides.Set(Override{Device: d, Ver: r.overrides.MaxVer() + 1})
				}
			}
			r.mu.Unlock()
			if h == nil {
				errs = append(errs, fmt.Errorf("cluster: settling %d devices on unknown node %s", len(devices), owner))
			}
			return errors.Join(errs...)
		}
		r.mu.Unlock()
		for len(pend) > 0 {
			n := min(r.cfg.DrainBatch, len(pend))
			h.mu.Lock()
			err := h.client.Feed(pend[:n])
			h.mu.Unlock()
			if err != nil {
				// Surface the error but keep settling: the routes must
				// reopen or the devices buffer forever.
				errs = append(errs, fmt.Errorf("cluster: replaying %d buffered transactions to %s: %w", n, owner, err))
			}
			pend = pend[n:]
		}
	}
}

// tagged builds the per-node alert relay feeding the router's fan-in
// callback.
func (r *Router) tagged(node string) func(NodeAlert) {
	return func(a NodeAlert) {
		// Trust the tag the node wrote; fall back to the member name for
		// older nodes that leave it empty.
		if a.Node == "" {
			a.Node = node
		}
		r.alerts(a)
	}
}

func sortedKeys(m map[string][]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
