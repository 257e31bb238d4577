// Package webtxprofile profiles the users of a network from their web
// transactions, reproducing "Profiling Users by Modeling Web Transactions"
// (Tomšů, Marchal, Asokan — ICDCS 2017).
//
// A web transaction is one proxy-logged HTTP(S) request augmented with
// service knowledge (website category, application type, media type, URL
// reputation). The library turns sequences of transactions into sliding
// bag-of-words feature windows, fits a one-class classifier (ν-OC-SVM or
// SVDD, solved from scratch with an SMO solver) per user, and uses the
// per-user models to differentiate and identify users — including live,
// streaming identification for continuous authentication.
//
// # Quick start
//
//	ds, err := webtxprofile.ReadLogFile("proxy.log")
//	// handle err
//	set, test, err := webtxprofile.Train(ds, webtxprofile.Config{})
//	// handle err
//	cm, err := set.Evaluate(test)
//	// handle err
//	fmt.Println(cm.Mean()) // ACC_self / ACC_other / ACC
//
// # Streaming identification engine
//
// The live path — the proxy-side daemon of the paper's deployment
// scenario — is a sharded, allocation-lean engine:
//
//   - Every kernel of the paper factors through the dot product x·y —
//     linear and sigmoid directly, polynomial via (γ·x·y+c₀)^d, and RBF
//     via ‖x−y‖² = ‖x‖²+‖y‖²−2x·y with cached support-vector norms — so no
//     decision pays a per-support-vector sparse-sparse merge join: linear
//     models precompute the dense weight vector w = Σᵢ αᵢxᵢ (one O(nnz(x))
//     dot product per decision), and polynomial/RBF/sigmoid models carry
//     an inverted support-vector index that yields all SV dot products in
//     one pass over the window's non-zeros before a scalar kernel loop.
//   - Multi-model scoring fuses the whole population into one shared
//     inverted index (svm.FusedIndex): the postings of every model's
//     weight vector and support vectors are merged per feature, so a
//     single pass over a window's ~20 non-zeros accumulates every
//     profile's dot products at once instead of U separate index walks.
//     Layered decision screening (Cauchy–Schwarz norm bounds, then
//     transcendental-free per-support-vector bounds on the kernel sum)
//     proves most models cannot accept the window without running their
//     scalar kernel loops. The index is immutable after construction and
//     shared read-only across monitor shards; each shard carries only
//     per-window scratch (svm.Scorer). An optional float32 postings mode
//     (MonitorConfig.Float32Scoring) halves index memory, with the
//     float64 divergence certified per decision by
//     svm.Float32DecisionBound; the default stays exact float64, whose
//     accept/reject decisions are bit-identical to the per-model engine.
//   - The fused postings are laid out cache-blocked in fixed-width
//     zero-padded lanes, consumed by interchangeable kernel engines:
//     packed AVX-512 assembly where the CPU supports it, straight-line Go
//     lane kernels elsewhere, and portable reference loops on demand
//     (MonitorConfig.ScoringKernels, profilerd -score-portable). Engine
//     choice is pure mechanism — decisions are bit-identical across all
//     of them, in float64 and float32 alike, a property pinned by a
//     differential fuzz target and a monitor-level alert-equivalence
//     suite. Daemons log the resolved engine and the index footprint
//     (svm.FusedIndex.Footprint) at startup.
//   - Per-user grid searches share one Gram matrix across all ν/C cells of
//     a (user, kernel) row — the kernel matrix depends only on the kernel
//     and the training windows — cutting the search's kernel evaluations
//     by over an order of magnitude.
//   - The Monitor lock-stripes devices across configurable shards
//     (MonitorConfig.Shards); each device hashes to one shard, preserving
//     per-device event order while devices on different shards feed in
//     parallel (Feed or the batched FeedBatch, whose bounded worker pool —
//     MonitorConfig.BatchWorkers — scores the windows completed within a
//     batch concurrently across shards).
//   - Alerts are delivered in enqueue order from a dedicated goroutine
//     rather than under a lock; Flush waits for delivery, Close stops the
//     engine.
//   - Devices idle longer than MonitorConfig.IdleTTL (in stream time) are
//     evicted, bounding tracked-device memory.
//
// # Ingest queue and backpressure
//
// The collector's connections do not call the handler themselves: every
// connection parses its lines (or binary records — DialCollectorBinary
// switches a sender to length-prefixed weblog binary records, decoded
// zero-copy) and feeds one bounded multi-producer single-consumer
// queue; a single consumer goroutine invokes the handler, so handlers
// need no locking and per-connection transaction order is preserved
// end to end. The queue (CollectorBatchConfig.QueueDepth, default
// 4×MaxBatch) is the backpressure contract: when the consumer falls
// behind, enqueues block, the connection goroutines stop reading, and
// the stall propagates through TCP flow control back to the proxies —
// the collector never buffers unboundedly and never drops a parsed
// transaction. Batch delivery (ListenCollectorBatch) rides the same
// queue, pairing with FeedBatch so each shard lock is taken once per
// batch; a size-capped batch flushes immediately, a partial batch after
// FlushInterval. The steady-state feed path — ParseLine through feature
// extraction into the shard loop — is allocation-free once warm,
// gated by testing.AllocsPerRun tests at every layer.
//
// # Durable identifier state
//
// The full streaming-identification state is serializable at every layer:
// a features.Streamer snapshots its window anchor, buffered records
// (each transaction's extracted columns, offset and user) and emit
// position; an Identifier adds its per-user consecutive-accept
// streaks (keyed by user id, so snapshots survive profile retrains); a
// Monitor wraps that with the confirmed identity per device. The state
// moves through a small lifecycle:
//
//	live ──(idle eviction with MonitorConfig.Spill, or Monitor.Park)──►
//	spilled ──(next transaction, in this process or another on the same
//	state tier)──► rehydrated
//
// A StateStore holds spilled devices: NewMemStateStore keeps them
// in-process (eviction bounds live identifier memory without losing
// streaks), NewDiskStateStore persists one gzip file per device so
// state survives restarts (profilerd's -state-dir; Monitor.Checkpoint
// spills every live device for a graceful shutdown). Resume is exact:
// an evicting-and-rehydrating monitor emits the identical alert sequence
// to a never-evicting one, and a device parked by one monitor and
// rehydrated by another on the same store keeps every pending window and
// streak — both properties are asserted by tests. Serialized state
// carries a format version, checked on decode like the profile bundle's,
// and the fingerprint of the vocabulary its records were extracted
// under: state from another vocabulary is dropped like a version
// mismatch.
//
// # Multi-node clustering
//
// Past one process, the engine scales out over the state tier:
// ClusterNodes each run a sharded Monitor over the same trained bundle,
// spill through one shared StateServer, and speak a length-prefixed
// binary wire protocol (feeds as zero-copy binary transaction records,
// parks, plus an alert push stream; every peer runs the same build, and
// a frame of another wire version is refused), and a ClusterRouter
// fronts them.
//
// The router's placement guarantee: every device is owned by the member
// with the highest rendezvous-hash score for it, so a membership change
// moves only the devices whose top score shifts — AddNode drains an
// expected 1/n of the population onto the new node, RemoveNode drains
// exactly the removed node's devices, and nothing else is touched. The
// routing table stays authoritative over the hash: a failed drain leaves
// the devices on their old owner with their state intact.
//
// The router's drain guarantee: a drained device moves whole (window
// buffer, streaks, confirmed identity — parked in the state tier by its
// old owner, rehydrated by its new one), transactions arriving mid-drain
// are buffered and replayed to the new owner in arrival order, and the
// old owner's alerts are delivered before the new owner's. Net effect,
// asserted by the internal cluster equivalence suites under -race: the
// cluster's per-device alert sequences are byte-identical to a single
// never-resharded Monitor, through any sequence of membership changes.
// Alerts fan in to the router tagged with their origin node (NodeAlert).
//
// See the examples/ directory for runnable end-to-end programs and
// DESIGN.md for the experiment-by-experiment reproduction map.
package webtxprofile
