// Package statestore is the fleet-wide state tier: a small networked
// backend for core.StateStore, so spill and checkpoint stop assuming a
// local disk and a device's identification state survives the node that
// held it.
//
// Two halves. Server holds the authoritative per-device blobs in memory
// (optionally persisted through any core.StateStore, e.g. a
// core.DiskStateStore directory) and speaks a length-prefixed binary
// protocol (see wire.go). It shares the cluster wire's framer and frame
// bound (weblog.ReadFrame, MaxFrameBytes) and its payload reader
// (weblog.BinaryReader), but has its own magic byte, so a connection
// made to the wrong service fails at its first frame. Client implements the
// four-method core.StateStore interface over that protocol with
// write-behind batching: Put never touches the network — it coalesces
// into a bounded dirty queue flushed by count or age — so the monitor's
// hot eviction path is a map write, while Get reads through (pending
// local writes first, then the server) and Delete and Devices are
// synchronous RPCs.
//
// # Device lifecycle through the tier
//
//	          eviction / checkpoint                 flush (count/age/Flush)
//	live ───────────────────────────► write-behind ───────────────────────► flushed
//	  ▲        Client.Put: coalesced      │ dirty queue,                       │ server holds
//	  │        into the dirty queue,      │ read-through                       │ (ver, blob);
//	  │        versioned per device       │ serves Get                         │ backing store
//	  │                                   ▼                                    │ persists it
//	  └◄──────────────────────────────────┴────────────────────────────────────┘
//	    next transaction rehydrates (Get → restore → Delete), on the same
//	    node or any other: a device that a membership change moves is
//	    parked here by its old owner (spill, then Flush) and rehydrates at
//	    its new owner, whose Get learns its version, and a dead node's
//	    devices rehydrate lazily at their new owner — failover without a
//	    park (see internal/cluster: Router.AddNode, Router.RemoveNode and
//	    Router.FailNode).
//
// # Versioning: why a stale flush cannot clobber a newer spill
//
// Write-behind means a flush can arrive late — after the device moved to
// a new owner and the new owner already spilled newer state. Every
// client Put therefore assigns the device a fresh monotonic version
// (greater than both the highest version the server has acknowledged to
// this client and the highest this client has assigned), and the server
// applies a Put only if its version is strictly greater than the current
// one, replying with the version now in force. Delete bumps the version
// and leaves a tombstone version behind, so a new owner's
// rehydrate-consume (Get → Delete) fences every version the old owner
// could still have queued: the delayed flush arrives with a version at
// or below the tombstone and is dropped (counted, not erred — staleness
// is the protocol working). The write-behind version-conflict tests
// prove the invariant over seeded interleavings.
//
// # Degradation
//
// The feed path never blocks on this tier. If the server is unreachable,
// flushes retry with backoff while new Puts keep landing in the dirty
// queue; when the queue fills, Put fails fast with ErrQueueFull and the
// monitor falls back to its lossy eviction path (flush + AlertLost) —
// degraded, bounded, and alive. Tombstones live only in server memory:
// a server restart forgets fence versions, which is safe whenever the
// restart outlives the queued writes of dead former owners.
package statestore
