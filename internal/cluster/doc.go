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
// (see wire.go) — feed, park, list, flush — plus an unsolicited alert
// push stream. Every node spills through the shared state tier (one
// internal/statestore server, each node on its own write-behind client);
// a router refuses to add a node that cannot park. All placement
// intelligence lives in the Router; nodes never talk to each other, and
// every device move is router-mediated: the old owner parks the device
// in the tier, the route flips, and the new owner rehydrates it, with
// transactions buffered in between. Routers are replicated (see
// Replication below); nodes accept any number of them.
//
// # Wire format
//
// Every frame is a 4-byte big-endian length followed by a binary
// payload: the magic byte 0xF7, a version byte (2), a frame type code,
// a uvarint sequence number, then tagged fields until the payload ends —
// each field a tag byte followed by a length/count-prefixed body,
// zero-valued fields omitted, unknown tags a decode error. The framer
// (weblog.ReadFrame, with its MaxFrameBytes bound) and the payload reader
// (weblog.BinaryReader) are the ones the state tier's protocol uses too;
// the two protocols differ in their magic bytes. Feeds carry
// transactions as weblog binary records (Frame.Txs), which the node
// decodes zero-copy: every string field of every decoded transaction
// aliases the one frame payload. Device state never crosses this wire.
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
//     last-seen stamp through the state tier, and the new owner resumes
//     mid-streak.
//   - No transaction is lost or reordered. The router buffers a draining
//     device's transactions and replays them to the new owner after the
//     park, in arrival order, before reopening the route.
//   - No alert is reordered. A node syncs its alert deliveries before
//     answering a park, and the client delivers pushed alerts in-line
//     before any later RPC reply, so the old owner's alerts for a device
//     are observed before the new owner's first.
//
// Placement is a pure function of membership: every settled route names
// the device's rendezvous owner under the current view. A membership
// change is all or nothing — it either completes or is called off with
// every device back where it was and the view unchanged — so no failure
// leaves a device off its hash owner, and the router keeps no placement
// memory beside the view.
//
// # Moving a device
//
// A membership change moves devices in three steps (Router.AddNode,
// Router.RemoveNode):
//
//	Park(every src) → Park(every dst, no devices) → settle the routes
//
// A park spills every named live device on its source and flushes the
// source's write-behind queue before replying (idle devices are already
// in the tier). It is idempotent — a retry after a lost reply finds
// nothing left to spill — so the client retries it across reconnects. A
// join parks once per source and a removal once, on the leaving node.
// The empty parks then prove that every destination answers and can take
// devices; only after them does the view change and any route settle.
// Each moved device's next transaction reaches its new owner, which reads
// it from the tier (Get → restore → Delete). That read teaches the owner's
// tier client the device's version, so its later spills rank above the
// tombstone the read planted and are never dropped as stale; the same
// per-device version fence is what rules out two live copies.
//
// If a source refuses its park or cannot be reached, or a destination
// does not answer, the change is called off: every mover settles back on
// its source and the parked ones rehydrate there. A leaving node that
// cannot be reached is the one exception — it is going away, so its
// devices move on to their destinations as FailNode's would. Devices
// first seen while a change is in flight, and owned by the node it adds
// or removes, wait with the movers and settle with them. Router.Flush
// rehydrates, on their owners, the devices a move left in the tier with
// no transaction since, so their pending windows complete at the end of
// the stream too.
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
// are discoverable from the nodes themselves (list). The one thing
// replicas must agree on travels by gossip (GossipState, ServeGossip,
// GossipWith): the versioned membership view, the higher version adopted
// wholesale and never triggering a move — rebalancing belongs to the
// router that ran the membership change. Because changes are all or
// nothing, the view alone fixes every device's placement; there is no
// table of exceptions to reconcile. Alerts are fanned to every replica's
// subscription; each alert
// carries its node's sequence number, so downstream consumers collapse
// duplicates on (node, seq) without disturbing per-device order.
//
// The routing table itself is bounded: a device idle past
// RouterConfig.RouteIdleTTL (in stream time, mirroring the monitor's
// IdleTTL) has its route swept and re-derived on its next transaction.
//
// # Failure modes
//
// What each failure leaves behind, as proven by the chaos and state-tier
// suites (chaos_test.go, ha_test.go, statetier_test.go — deterministic
// fault injection through clustertest.ChaosProxy, replayable from the
// logged WTP_CHAOS_SEED):
//
//	failure                      outcome
//	-------                      -------
//	connection dies mid-feed     client redials, replays unacked frames;
//	                             node dedups; exactly-once delivery
//	node down > MaxAttempts      ErrNodeDown; queued feeds surface via
//	                             OnDrop; RPCs fail fast
//	replay buffer full (down)    ErrReplayOverflow (typed), caller sheds
//	router replica crashes       surviving replicas keep routing; alerts
//	                             deduped on (node, seq); no alert lost
//	gossiped view unreachable    adoption is all-or-nothing; old view
//	                             stands, error surfaces in-band
//	live move                    movers park in the tier (spill, then
//	                             flush), the route flips, each device
//	                             rehydrates at its new owner on its next
//	                             transaction; no spill is dropped as
//	                             stale afterwards
//	park refused or fails        the change is called off and the view is
//	                             unchanged; the devices settle back on
//	                             their sources: unparked ones never left,
//	                             parked ones rehydrate there
//	park reply lost              the client retries the park, which
//	                             spills nothing; the move completes
//	destination lost after park  the change is called off and the view is
//	                             unchanged; the devices settle back on
//	                             the source and rehydrate there
//	leaving node lost mid-park   its devices move on without it; what it
//	                             parked resumes at the new owners
//	node without a tier joins    AddNode refuses it before any device
//	                             moves; the error names the state tier
//	member dies, FailNode        devices reroute to survivors and resume
//	                             from their checkpoints — failover with
//	                             no park at all
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
