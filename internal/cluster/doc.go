// Package cluster scales the continuous-identification monitor past one
// process: a front-end Router places every device on a member Node by
// rendezvous (highest-random-weight) hashing over a versioned membership
// view, forwards transactions to the owning node's core.Monitor, and
// rebalances on membership changes by draining exactly the devices whose
// placement changed — the multi-node deployment of the paper's
// centralized continuous-authentication service (Sect. I), where many
// proxy vantage points feed one logical identification engine.
//
// # Topology
//
// Nodes are passive shards: each runs a sharded core.Monitor over the
// same trained profile set and speaks the length-prefixed frame protocol
// (see wire.go) — feed, export, import, commit, abort, list, flush —
// plus an unsolicited alert push stream. All placement intelligence
// lives in the Router; nodes never talk to each other, and every device
// move is router-mediated: a staged export on the old owner, a staged
// import on the new, commits on both, transactions buffered in between.
// When the nodes share a state tier, the state itself travels through
// the tier and the handoff only orders the move. Routers are replicated (see Replication below); nodes accept
// any number of them.
//
// # Wire format
//
// Every frame is a 4-byte big-endian length followed by a binary
// payload: the magic byte 0xF7, a version byte (2), a frame type code,
// a uvarint sequence number, then tagged fields until the payload ends —
// each field a tag byte followed by a length/count-prefixed body,
// zero-valued fields omitted, unknown tags a decode error. Feeds carry
// transactions as weblog binary records (Frame.Txs), which the node
// decodes zero-copy: every string field of every decoded transaction
// aliases the one frame payload. Handoff blobs pass through untouched.
//
// There is one encoding and no negotiation. The version byte is a strict
// check: a payload without the magic (such as the JSON frames of older
// builds) or with another version fails with ErrWireVersion, the node
// logs it and hangs up, and DialNode returns it. Every node, router and
// client of a cluster must therefore run the same build. The decoder is
// fuzzed (FuzzReadFrame, FuzzBinaryFrame) with checked-in corpora.
//
// # Correctness
//
// The contract, inherited from the single-process engine and asserted by
// the clustertest equivalence suites, is that the cluster is
// indistinguishable from one never-resharded Monitor: for every device,
// the sequence of alerts (kind, user, previous user, window) is
// byte-identical, regardless of how many nodes there are and how often
// membership changes mid-stream. Three mechanisms carry that proof
// through a drain:
//
//   - State moves whole. A drained device's core.DeviceState carries its
//     window buffer, consecutive-accept streaks, confirmed identity and
//     last-seen stamp — in the handoff blob, or through the shared state
//     tier — and the new owner resumes mid-streak.
//   - No transaction is lost or reordered. The router buffers a draining
//     device's transactions and replays them to the new owner after the
//     import, in arrival order, before reopening the route.
//   - No alert is reordered. A node syncs its alert deliveries before
//     answering an export, and the client delivers pushed alerts in-line
//     before any later RPC reply, so the old owner's alerts for a device
//     are observed before the new owner's first.
//
// Failure handling favors state over placement: if any step of a drain
// fails, the devices stay routed to (and identifying on) their old owner
// — the rendezvous hash says where devices should live, but the routing
// table says where they do.
//
// # Two-phase handoff
//
// Between nodes with private stores, a drain moves state through four
// idempotent steps, each named by a handoff id ("<routerID>/<n>") that
// is unique across router replicas:
//
//	ExportHandoff(src) → ImportHandoff(dst) → Commit(dst) → Commit(src)
//
// The export holds the moving devices on src (revocable, no longer fed);
// the import stages the blob on dst (invisible, not identified against).
// Ownership flips at exactly one step — the commit on dst — and the
// final commit merely releases src's held copy. Because every step is
// idempotent per id, any step can be retried across reconnects, and any
// failure unwinds by aborting both sides: Abort on src re-adopts the
// held state automatically, so a failed drain never needs operator
// cleanup and can never leave two live copies. A lost commit
// acknowledgement is resolved by asking dst to abort — a "handoff
// already committed" refusal is proof the commit landed. Stagings whose
// router died before resolving them are invisible until the node's
// StagedTTL sweep reclaims them.
//
// # Moves through a shared state tier
//
// When the nodes spill through one internal/statestore server
// (core.MonitorConfig.SharedSpill on every node), the same four steps
// carry no state. The export parks the moving devices on src: it spills
// every live one and flushes the write-behind queue before replying, and
// its blob holds no device (idle ones are already in the tier). So a
// move is spill → flip the route → rehydrate: each device's next
// transaction reaches dst, which reads it from the tier (Get → restore →
// Delete). That read teaches dst's tier client the device's version, so
// dst's later spills rank above the tombstone the read planted and are
// never dropped as stale. An abort has nothing to re-adopt: a parked
// device rehydrates on src from its client's queue or from the tier. A
// node on a shared tier refuses to stage a blob that carries devices —
// only a peer on a private store sends one — so a mixed cluster falls
// back to the source instead of adopting state at a version its client
// never learned.
//
// # Reconnection
//
// A NodeClient survives connection loss: feeds are queued in a bounded
// replay buffer (ReconnectConfig.ReplayDepth) and re-sent after the
// client redials with exponential backoff; the node deduplicates
// re-sent frames per client session, so delivery is exactly-once.
// While connected, a full buffer applies backpressure; while down, it
// fails fast with ErrReplayOverflow so callers can shed load.
// Subscriptions resume from a cursor into the node's alert ring, so no
// alert is lost or duplicated across a reconnect. MaxAttempts
// consecutive dial failures declare the node down (ErrNodeDown).
//
// # Replication
//
// Any number of router replicas can front the same nodes, because a
// router holds almost no authoritative state: placement is derivable
// from the membership view by rendezvous hashing, and current holdings
// are discoverable from the nodes themselves (list). The two things
// replicas must agree on travel by gossip (GossipState, ServeGossip,
// GossipWith): the versioned membership view (higher version adopted
// wholesale, never triggering a drain — rebalancing belongs to the
// router that ran the membership change) and the override table, a
// last-writer-wins register per device recording placements that
// disagree with the pure hash. Override merges are commutative,
// associative and idempotent, so replicas converge under any exchange
// order. Alerts are fanned to every replica's subscription; each alert
// carries its node's sequence number, so downstream consumers collapse
// duplicates on (node, seq) without disturbing per-device order.
//
// The routing table itself is bounded: a device idle past
// RouterConfig.RouteIdleTTL (in stream time, mirroring the monitor's
// IdleTTL) has its route swept and re-derived on its next transaction.
//
// # Failure modes
//
// What each failure leaves behind, as proven by the chaos suites
// (chaos_test.go, ha_test.go — deterministic fault injection through
// clustertest.ChaosProxy, replayable from the logged WTP_CHAOS_SEED):
//
//	failure                      outcome
//	-------                      -------
//	connection dies mid-feed     client redials, replays unacked frames;
//	                             node dedups; exactly-once delivery
//	node down > MaxAttempts      ErrNodeDown; queued feeds surface via
//	                             OnDrop; RPCs fail fast
//	replay buffer full (down)    ErrReplayOverflow (typed), caller sheds
//	import refused or dies       abort both sides; src re-adopts; devices
//	                             stay on old owner; nothing to clean up
//	import ack lost + partition  staging invisible on dst until StagedTTL
//	                             sweep; devices stay on old owner
//	commit ack lost              abort probe: "already committed" refusal
//	                             confirms the flip; handoff completes
//	router replica crashes       surviving replicas keep routing; alerts
//	                             deduped on (node, seq); no alert lost
//	gossiped view unreachable    adoption is all-or-nothing; old view
//	                             stands, error surfaces in-band
//
// With a shared state tier (every node spills through one
// internal/statestore server, write-behind), the suites in
// statetier_test.go add:
//
//	failure                      outcome
//	-------                      -------
//	live move                    movers park in the tier (spill, then
//	                             flush), the route flips, each device
//	                             rehydrates at its new owner on its next
//	                             transaction; no spill is dropped as
//	                             stale afterwards
//	park fails                   the drain aborts: devices stay on, or
//	                             rehydrate at, the source; nothing is
//	                             lost
//	member dies, FailNode        devices reroute to survivors and resume
//	                             from their checkpoints — failover with
//	                             no handoff protocol at all
//	state server unreachable     feed path degrades lossy, never blocks:
//	                             spill Puts fail fast on the bounded
//	                             write-behind queue (ErrQueueFull);
//	                             queued writes land after the heal
//	stale flush after failover   the server's per-device version fence
//	                             drops it: the new owner's
//	                             rehydrate-consume bumped a tombstone
//	                             above every version the dead owner's
//	                             client could still hold
package cluster
