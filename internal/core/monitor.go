package core

import (
	"errors"
	"fmt"
	"hash/maphash"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webtxprofile/internal/svm"
	"webtxprofile/internal/weblog"
)

// Alert is one identity-state change on a monitored device, the event
// stream of the paper's continuous-authentication and intrusion-monitoring
// applications (Sect. I).
//
// An alert's strings belong to the monitor, never to the transaction or
// state blob that caused it: the device id is the monitor's own copy, the
// users are the profile set's, and the window's user counts are keyed by
// the device streamer's own copies of the user ids (see
// features.Streamer). Retaining an alert (an alert ring, a log, a
// benchmark recorder) therefore retains no ingest batch, wire frame or
// decoded blob.
type Alert struct {
	Device string
	// Kind distinguishes the transitions.
	Kind AlertKind
	// User is the newly identified user (AlertIdentified), or the user
	// whose identity was lost (AlertLost).
	User string
	// Previous is the previously confirmed user, if any.
	Previous string
	// Event carries the underlying window classification.
	Event Event
}

// AlertKind enumerates identity transitions.
type AlertKind int

// Alert kinds.
const (
	// AlertIdentified fires when a user reaches the consecutive-window
	// threshold on a device (including taking over from another user).
	AlertIdentified AlertKind = iota + 1
	// AlertLost fires when a confirmed identity stops matching the
	// observed windows.
	AlertLost
)

// String names the alert kind.
func (k AlertKind) String() string {
	switch k {
	case AlertIdentified:
		return "identified"
	case AlertLost:
		return "lost"
	default:
		return fmt.Sprintf("alert(%d)", int(k))
	}
}

// MonitorConfig tunes the sharded monitor. The zero value selects the
// defaults, which behave exactly like the original single-lock monitor
// (no eviction) while removing its lock contention.
type MonitorConfig struct {
	// Shards is the number of lock-striped device shards (default 16).
	// Each device hashes to one shard, so per-device event order is
	// preserved while devices on different shards feed in parallel.
	Shards int
	// IdleTTL evicts a device whose last transaction is older than this,
	// measured in stream time (the maximum transaction timestamp seen by
	// the whole monitor, not wall clock), bounding tracked-device memory.
	// Pending windows of an evicted device are flushed first, and a
	// device evicted while an identity is confirmed fires a final
	// AlertLost, so consumers always see sessions end. Sweeps cover every
	// shard — including quiet ones — and are amortized to one full pass
	// per IdleTTL of stream time, so an idle device lingers for at most
	// 2×IdleTTL while any traffic flows anywhere.
	//
	// The stream clock defends against corrupt timestamps: a single
	// transaction advances it by at most IdleTTL, sweeps pause while
	// recent input disagrees with the clock, and a clock poisoned by a
	// corrupt far-future timestamp snaps back once enough legitimate
	// traffic follows. A client whose clock is *persistently* years
	// ahead and that dominates the stream is indistinguishable from
	// genuine stream progress and can still starve other devices of
	// stream time — feed the monitor from time-sane sources or disable
	// eviction. 0 disables eviction.
	IdleTTL time.Duration
	// AlertBuffer is the capacity of the alert delivery channel
	// (default 256). Feeding blocks when the callback falls this far
	// behind.
	AlertBuffer int
	// BatchWorkers bounds the worker pool FeedBatch uses to process the
	// batch's shards concurrently, so windows completed within one batch
	// are scored in parallel (default GOMAXPROCS, further capped at the
	// number of shards holding work; 1 processes shards sequentially).
	// Each shard's transactions are still handled in order under the
	// shard lock, so per-device event and alert order is identical to
	// the sequential setting — only the interleaving of alerts *across*
	// devices varies.
	BatchWorkers int
	// Spill, when non-nil, makes idle eviction durable instead of lossy:
	// an evicted device's identification state (pending window buffer,
	// consecutive-accept streaks, confirmed identity) is serialized into
	// the store, no flush happens and no synthetic AlertLost fires, and
	// the state is transparently rehydrated — and removed from the store —
	// when the device's next transaction arrives. With a spill store the
	// alert sequence of an evicting monitor is identical to a
	// never-evicting one (TestMonitorSpillRehydrateMatchesNeverEvicting),
	// and Checkpoint can persist every live device across a process
	// restart. Store I/O runs under the affected device's shard lock.
	// Should the store fail on a spill, the monitor falls back to the
	// lossy eviction path (flush + AlertLost) rather than leak the device.
	Spill StateStore
	// SharedSpill has no effect. Every cluster node spills through the
	// shared state tier, and a monitor treats any Spill store the same
	// way: TrackedDevices lists live devices only, and Park moves devices
	// through the store.
	//
	// Deprecated: leave it unset.
	SharedSpill bool
	// Float32Scoring stores the shared fused scoring index's postings —
	// and runs the per-shard accumulators — in float32, roughly halving
	// scoring memory and accumulation bandwidth for large populations.
	// Decisions then match the exact float64 engine only within
	// svm.Float32DecisionBound, so alert sequences may differ for windows
	// inside that bound of a profile's decision boundary. Leave it false
	// (the default, exact float64) when byte-identical equivalence
	// matters more than memory.
	Float32Scoring bool
	// ScoringKernels selects the fused index's kernel implementations:
	// svm.KernelsAuto (the zero value) resolves to the fastest engine the
	// CPU supports, svm.KernelsPortable forces the per-posting reference
	// loops. Every engine produces bit-identical float64 decisions and
	// identical accept masks, so this is an escape hatch and an A/B
	// instrument, not a semantics knob.
	ScoringKernels svm.KernelMode

	// referenceScoring routes every shard's window scoring through the
	// pre-fused per-model decision path instead of the shared fused
	// index — the reference engine for the fused-equivalence suites.
	// Test seam only (unexported): always false in production.
	referenceScoring bool
}

func (c MonitorConfig) withDefaults() MonitorConfig {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.AlertBuffer <= 0 {
		c.AlertBuffer = 256
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Monitor tracks every device seen in a transaction stream, maintaining
// one streaming Identifier per device and emitting Alerts on identity
// transitions. It is the reusable core of the profilerd daemon and the
// intrusion-monitor example. Safe for concurrent use: devices are
// lock-striped across shards, and alerts are delivered in enqueue order
// by one dedicated goroutine rather than under a shard lock, so the
// callback may block briefly without stalling ingestion (until
// AlertBuffer fills). Alerts for one device always arrive in that
// device's event order. The callback must not call back into the
// Monitor: a feeder blocked on a full alert buffer holds its shard lock,
// and a re-entrant callback could wait on that same lock.
type Monitor struct {
	set *ProfileSet
	k   int
	cfg MonitorConfig

	// ix is the monitor-wide fused scoring index (nil only under the
	// referenceScoring test seam); kept for the engine/footprint accessors.
	ix *svm.FusedIndex

	seed   maphash.Seed
	shards []*monitorShard

	// streamNow is the maximum transaction timestamp (unix nanos) seen so
	// far — the monitor-wide stream clock driving idle eviction.
	// lastSweep is the stream time of the last full eviction sweep.
	// behind counts consecutive transactions observed far behind the
	// clock; a long unbroken run means the clock was poisoned by a
	// corrupt timestamp and triggers a regression (see advanceClock).
	streamNow atomic.Int64
	lastSweep atomic.Int64
	behind    atomic.Int64

	// pump owns alert delivery. It is a separate allocation referenced by
	// the delivery goroutine instead of the Monitor itself, so an
	// abandoned Monitor can be collected (a GC cleanup then stops the
	// goroutine) even when Close was never called.
	pump *alertPump
}

// alertPump delivers alerts in enqueue order from one goroutine and lets
// Flush/Close wait until everything enqueued has been handed to the
// callback. The in-flight count is guarded by a mutex/cond (not a
// WaitGroup) so waiting and enqueueing may overlap freely — a Flush
// racing a concurrent feeder must not trip WaitGroup's add-during-wait
// misuse detection.
type alertPump struct {
	ch      chan Alert
	cb      func(Alert)
	drained chan struct{}
	stop    sync.Once

	mu       sync.Mutex
	cond     sync.Cond
	inFlight int
}

func newAlertPump(cb func(Alert), buffer int) *alertPump {
	p := &alertPump{
		ch:      make(chan Alert, buffer),
		cb:      cb,
		drained: make(chan struct{}),
	}
	p.cond.L = &p.mu
	return p
}

// run delivers until the channel closes. Running outside the shard locks
// means a slow callback stalls delivery, not ingestion (until the buffer
// fills).
func (p *alertPump) run() {
	for a := range p.ch {
		p.cb(a)
		p.mu.Lock()
		p.inFlight--
		if p.inFlight == 0 {
			p.cond.Broadcast()
		}
		p.mu.Unlock()
	}
	close(p.drained)
}

func (p *alertPump) emit(a Alert) {
	p.mu.Lock()
	p.inFlight++
	p.mu.Unlock()
	p.ch <- a
}

// wait blocks until every alert enqueued so far has been delivered.
func (p *alertPump) wait() {
	p.mu.Lock()
	for p.inFlight > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// halt closes the channel exactly once; run drains what is buffered and
// exits.
func (p *alertPump) halt() {
	p.stop.Do(func() { close(p.ch) })
}

// monitorShard is one lock stripe: its devices, plus a shard-owned scorer
// whose scratch buffers every identifier in the shard shares.
type monitorShard struct {
	mu      sync.Mutex
	devices map[string]*deviceTrack
	sc      *scorer
}

type deviceTrack struct {
	id      *Identifier
	current string
	// lastSeen is the newest transaction timestamp, driving IdleTTL
	// eviction in stream time.
	lastSeen time.Time
}

// NewMonitor creates a monitor with the default configuration. alerts
// receives every transition from a dedicated delivery goroutine; Flush
// (and Close) wait for deliveries to complete.
func NewMonitor(set *ProfileSet, consecutiveK int, alerts func(Alert)) (*Monitor, error) {
	return NewMonitorWithConfig(set, consecutiveK, alerts, MonitorConfig{})
}

// NewMonitorWithConfig creates a monitor over a trained profile set with
// explicit sharding/eviction configuration. consecutiveK is the
// identification threshold.
func NewMonitorWithConfig(set *ProfileSet, consecutiveK int, alerts func(Alert), cfg MonitorConfig) (*Monitor, error) {
	if set == nil || len(set.Profiles) == 0 {
		return nil, fmt.Errorf("core: monitor needs a trained profile set")
	}
	if alerts == nil {
		return nil, fmt.Errorf("core: nil alert callback")
	}
	if consecutiveK <= 0 {
		consecutiveK = 1
	}
	cfg = cfg.withDefaults()
	m := &Monitor{
		set:    set,
		k:      consecutiveK,
		cfg:    cfg,
		seed:   maphash.MakeSeed(),
		shards: make([]*monitorShard, cfg.Shards),
		pump:   newAlertPump(alerts, cfg.AlertBuffer),
	}
	// One fused index is built for the whole monitor and shared read-only
	// across shards; each shard's scorer only adds private accumulator
	// scratch, so scoring memory stays O(population + shards·scratch)
	// instead of O(shards × population).
	users, models, err := setModels(set)
	if err != nil {
		return nil, err
	}
	var ix *svm.FusedIndex
	if !cfg.referenceScoring {
		ix = svm.NewFusedIndex(models, svm.FusedConfig{
			Float32: cfg.Float32Scoring,
			Kernels: cfg.ScoringKernels,
		})
		m.ix = ix
	}
	for i := range m.shards {
		var sc *scorer
		if cfg.referenceScoring {
			sc = newReferenceScorer(users, models)
		} else {
			sc = newSharedScorer(users, ix)
		}
		m.shards[i] = &monitorShard{devices: make(map[string]*deviceTrack), sc: sc}
	}
	go m.pump.run()
	// Safety net for monitors dropped without Close: the pump goroutine
	// references only the pump, so an unreachable Monitor is collectable
	// and this cleanup stops the goroutine. (A callback that captures the
	// Monitor keeps it reachable — such callers must Close explicitly.)
	runtime.AddCleanup(m, func(p *alertPump) { p.halt() }, m.pump)
	return m, nil
}

// ScoringEngine names the fused index's resolved kernel engine (e.g.
// "block8/float64+avx512 (cpu: ...)"), or "per-model" under the reference
// scoring seam. Daemons log it at startup so deployments can tell which
// engine a host resolved to.
func (m *Monitor) ScoringEngine() string {
	if m.ix == nil {
		return "per-model"
	}
	return m.ix.Engine()
}

// ScoringFootprint returns the shared fused index's memory accounting
// (zero under the reference scoring seam).
func (m *Monitor) ScoringFootprint() svm.IndexFootprint {
	if m.ix == nil {
		return svm.IndexFootprint{}
	}
	return m.ix.Footprint()
}

// shardIndex is the single device→shard routing rule; Feed, FeedBatch and
// Current must all agree on it or per-device ordering breaks.
func (m *Monitor) shardIndex(device string) int {
	if len(m.shards) == 1 {
		return 0
	}
	return int(maphash.String(m.seed, device) % uint64(len(m.shards)))
}

func (m *Monitor) shardFor(device string) *monitorShard {
	return m.shards[m.shardIndex(device)]
}

// Feed routes one transaction to its device's identifier, emitting alerts
// for any identity transitions the completed windows cause.
func (m *Monitor) Feed(tx weblog.Transaction) error {
	sh := m.shardFor(tx.SourceIP)
	sh.mu.Lock()
	err := m.feedLocked(sh, tx)
	sh.mu.Unlock()
	m.maybeSweep()
	return err
}

// feedBatchMaxErrs caps the per-transaction errors FeedBatch reports, so a
// fully bad batch cannot produce an unbounded error value.
const feedBatchMaxErrs = 8

// batchScratch holds FeedBatch's counting-sort partition arrays. The
// arrays scale with batch size and shard count, so a steady-state feed
// loop would otherwise pay several allocations per batch; pooling them
// keeps the batch path allocation-free once warm. Pool-local, never
// retained past the FeedBatch call that took it.
type batchScratch struct {
	shardOf []int32
	order   []int32
	starts  []int
	fill    []int
	work    []int
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// grab sizes the scratch for a batch of n transactions over shards
// shards, reusing prior capacity.
func (sc *batchScratch) grab(n, shards int) (shardOf, order []int32, starts, fill []int) {
	if cap(sc.shardOf) < n {
		sc.shardOf = make([]int32, n)
		sc.order = make([]int32, n)
	}
	if cap(sc.starts) < shards+1 {
		sc.starts = make([]int, shards+1)
		sc.fill = make([]int, shards+1)
	}
	starts = sc.starts[:shards+1]
	clear(starts)
	return sc.shardOf[:n], sc.order[:n], starts, sc.fill[:shards]
}

// FeedBatch feeds a slice of transactions (non-decreasing timestamps per
// device, as with Feed), taking each shard lock once per batch instead of
// once per transaction and processing the batch's shards on a bounded
// worker pool (MonitorConfig.BatchWorkers), so windows completed within
// one batch are scored concurrently. Transactions for the same device are
// processed in slice order, and each device's alerts are enqueued in that
// device's event order regardless of the worker count — only the
// interleaving of alerts across devices depends on scheduling.
// Per-transaction errors (e.g. out-of-order timestamps) are collected —
// annotated with the offending device, capped so a fully bad batch cannot
// produce an unbounded error — and joined; the rest of the batch still
// feeds.
func (m *Monitor) FeedBatch(txs []weblog.Transaction) error {
	if len(txs) == 0 {
		return nil
	}
	// Stable counting-sort partition by shard: no copies of the
	// Transaction structs themselves, and the index arrays come from a
	// pool so a warm feed loop allocates nothing here.
	sc := batchScratchPool.Get().(*batchScratch)
	shardOf, order, starts, fill := sc.grab(len(txs), len(m.shards))
	work := sc.work[:0]
	defer func() {
		sc.work = work
		batchScratchPool.Put(sc)
	}()
	for i := range txs {
		s := m.shardIndex(txs[i].SourceIP)
		shardOf[i] = int32(s)
		starts[s+1]++
	}
	for s := 0; s < len(m.shards); s++ {
		starts[s+1] += starts[s]
	}
	copy(fill, starts[:len(m.shards)])
	for i := range txs {
		s := shardOf[i]
		order[fill[s]] = int32(i)
		fill[s]++
	}
	for si := range m.shards {
		if starts[si] < starts[si+1] {
			work = append(work, si)
		}
	}

	var errs []error
	suppressed := 0
	if workers := min(m.cfg.BatchWorkers, len(work)); workers <= 1 {
		for _, si := range work {
			es, supp := m.feedShard(si, order[starts[si]:starts[si+1]], txs)
			errs = append(errs, es...)
			suppressed += supp
		}
	} else {
		// Each busy shard is handled whole by one worker; merging the
		// per-shard error lists afterwards (in shard order) keeps the
		// reported errors deterministic for a given batch.
		perShard := make([][]error, len(m.shards))
		perSupp := make([]int, len(m.shards))
		shardCh := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for si := range shardCh {
					perShard[si], perSupp[si] = m.feedShard(si, order[starts[si]:starts[si+1]], txs)
				}
			}()
		}
		for _, si := range work {
			shardCh <- si
		}
		close(shardCh)
		wg.Wait()
		for _, si := range work {
			errs = append(errs, perShard[si]...)
			suppressed += perSupp[si]
		}
	}
	m.maybeSweep()
	if len(errs) > feedBatchMaxErrs {
		suppressed += len(errs) - feedBatchMaxErrs
		errs = errs[:feedBatchMaxErrs]
	}
	if suppressed > 0 {
		errs = append(errs, fmt.Errorf("core: %d more feed errors in batch", suppressed))
	}
	return errors.Join(errs...)
}

// feedShard feeds one shard's slice of a partitioned batch under its lock,
// returning up to feedBatchMaxErrs annotated errors plus the count of
// errors beyond the cap.
func (m *Monitor) feedShard(si int, order []int32, txs []weblog.Transaction) ([]error, int) {
	sh := m.shards[si]
	var errs []error
	suppressed := 0
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, ti := range order {
		if err := m.feedLocked(sh, txs[ti]); err != nil {
			if len(errs) < feedBatchMaxErrs {
				errs = append(errs, fmt.Errorf("device %s: %w", txs[ti].SourceIP, err))
			} else {
				suppressed++
			}
		}
	}
	return errs, suppressed
}

// feedLocked runs under sh.mu.
func (m *Monitor) feedLocked(sh *monitorShard, tx weblog.Transaction) error {
	tr, ok := sh.devices[tx.SourceIP]
	if !ok {
		var err error
		if tr, err = m.admitLocked(sh, tx.SourceIP); err != nil {
			return err
		}
	}
	if m.cfg.IdleTTL > 0 {
		// Record lastSeen in stream-clock coordinates: the clock is
		// clamped (below), so a corrupt far-future timestamp must not
		// give its device an unevictable far-future lastSeen either.
		seen := m.advanceClock(tx.Timestamp.UnixNano())
		if ts := tx.Timestamp.UnixNano(); ts < seen {
			seen = ts
		}
		if t := time.Unix(0, seen); t.After(tr.lastSeen) {
			tr.lastSeen = t
		}
	}
	events, err := tr.id.Feed(tx)
	if err != nil {
		return err
	}
	// The alerts name the device by the track's own copy of the id, never
	// by tx.SourceIP, which aliases ingest memory.
	m.process(tr.id.host, tr, events)
	return nil
}

// admitLocked starts tracking a device not currently in the shard: if a
// spill store holds the device's state (evicted earlier, or checkpointed
// by a previous process), the device is rehydrated from it — resuming its
// window buffer, streaks and confirmed identity exactly — and the blob is
// removed from the store; otherwise a fresh identifier is created. Runs
// under sh.mu.
//
// A corrupt blob (undecodable, version-drifted, or restore-rejected) fails
// the admitting transaction once and is deleted, so the device's next
// transaction starts it fresh instead of wedging the device forever. A
// store read that merely errors (transient I/O) leaves the blob in place —
// deleting durable state over a momentary failure would be exactly the
// loss this machinery exists to prevent — and only fails the one
// transaction; the next one retries the rehydration.
func (m *Monitor) admitLocked(sh *monitorShard, device string) (*deviceTrack, error) {
	// The id arrives aliasing transient ingest memory (a wire frame's
	// payload, a log line); clone it before it becomes a long-lived map
	// key so tracking one device cannot pin a whole decoded frame.
	device = strings.Clone(device)
	if m.cfg.Spill != nil {
		if tr, err := m.rehydrateLocked(sh, device); tr != nil || err != nil {
			return tr, err
		}
	}
	id, err := newIdentifierWithScorer(m.set, device, m.k, sh.sc)
	if err != nil {
		return nil, err
	}
	tr := &deviceTrack{id: id}
	sh.devices[device] = tr
	return tr, nil
}

// rehydrateLocked starts tracking device from its spilled state and
// removes the state from the store; it returns nil and no error when the
// store holds nothing for the device. Runs under sh.mu, with device the
// monitor's own copy of the id.
func (m *Monitor) rehydrateLocked(sh *monitorShard, device string) (*deviceTrack, error) {
	blob, ok, err := m.cfg.Spill.Get(device)
	if err != nil {
		return nil, fmt.Errorf("core: reading spilled state for device %s: %w", device, err)
	}
	if !ok {
		return nil, nil
	}
	st, err := DecodeDeviceState(blob, m.set.Vocabulary)
	if err == nil && st.Device != device {
		err = fmt.Errorf("core: spilled state for device %s names device %s", device, st.Device)
	}
	var tr *deviceTrack
	if err == nil {
		tr, err = m.restoreTrackLocked(sh, device, st)
	}
	if err != nil {
		// Corrupt state: drop the blob so only this one transaction
		// errors.
		m.cfg.Spill.Delete(device)
		return nil, fmt.Errorf("core: rehydrating device %s: %w", device, err)
	}
	if derr := m.cfg.Spill.Delete(device); derr != nil {
		return nil, fmt.Errorf("core: rehydrated device %s but could not clear spilled state: %w", device, derr)
	}
	sh.devices[device] = tr
	return tr, nil
}

// restoreTrackLocked rebuilds a device track from portable state, clamping
// the restored last-seen stamp into the importing monitor's stream-clock
// range (a zero or far-future stamp from another process must not make the
// device instantly evictable or unevictable). device is the monitor's own
// copy of st.Device: the state's strings alias the blob it was decoded
// from, so the track takes its id from device and its confirmed user from
// the profile set, and keeps no string of the blob. Runs under the target
// shard's lock.
func (m *Monitor) restoreTrackLocked(sh *monitorShard, device string, st DeviceState) (*deviceTrack, error) {
	id, err := restoreIdentifierWithScorer(m.set, device, st.Identifier, m.k, sh.sc)
	if err != nil {
		return nil, err
	}
	current := st.Current
	if i, ok := slices.BinarySearch(sh.sc.users, current); ok {
		current = sh.sc.users[i]
	} else {
		current = strings.Clone(current)
	}
	tr := &deviceTrack{id: id, current: current, lastSeen: st.LastSeen}
	if m.cfg.IdleTTL > 0 {
		if now := m.streamNow.Load(); now != 0 {
			clock := time.Unix(0, now)
			if tr.lastSeen.IsZero() || tr.lastSeen.Before(clock.Add(-m.cfg.IdleTTL)) || tr.lastSeen.After(clock.Add(m.cfg.IdleTTL)) {
				tr.lastSeen = clock
			}
		}
	}
	return tr, nil
}

// deviceStateLocked snapshots one tracked device into portable state.
// Runs under the device's shard lock.
func deviceStateLocked(device string, tr *deviceTrack) DeviceState {
	return DeviceState{
		Device:     device,
		Current:    tr.current,
		LastSeen:   tr.lastSeen,
		Identifier: tr.id.Snapshot(),
	}
}

// clockRegressAfter is the number of consecutive far-behind transactions
// that convict the stream clock of being poisoned and snap it back.
const clockRegressAfter = 512

// advanceClock advances the monitor-wide stream clock to ts (strict
// monotonic max across concurrent feeders) and returns the resulting
// clock value. A single transaction may advance the clock by at most
// IdleTTL once initialized: without the clamp, one corrupt far-future
// timestamp would move the eviction cutoff past every device's lastSeen
// and wipe all identification state on the next sweep.
//
// The first transaction initializes the clock unclamped (there is nothing
// to clamp against), so a corrupt *first* timestamp can pin the clock in
// the far future and stall eviction. That case self-heals: when
// clockRegressAfter consecutive transactions arrive more than 2×IdleTTL
// behind the clock, the clock snaps back to the observed stream.
func (m *Monitor) advanceClock(ts int64) int64 {
	ttl := int64(m.cfg.IdleTTL)
	for {
		cur := m.streamNow.Load()
		if cur == 0 {
			if m.streamNow.CompareAndSwap(0, ts) {
				return ts
			}
			continue
		}
		switch {
		case ts+2*ttl < cur:
			// Far behind the clock: suspicion, not progress. Count toward
			// a regression instead of advancing; while any suspicion is
			// outstanding, maybeSweep holds off eviction.
			if m.behind.Add(1) < clockRegressAfter {
				return cur
			}
			if m.streamNow.CompareAndSwap(cur, ts) {
				m.behind.Store(0)
				m.lastSweep.Store(ts) // resume the sweep schedule from here
				return ts
			}
			continue
		case ts > cur+2*ttl:
			// Far ahead: clamp the advance and leave the suspicion count
			// alone — a persistently clock-skewed client must not keep
			// "confirming" a poisoned clock and defeat the recovery.
			if m.streamNow.CompareAndSwap(cur, cur+ttl) {
				return cur + ttl
			}
			continue
		case ts > cur+ttl:
			ts = cur + ttl
		}
		if ts <= cur {
			m.behind.Store(0)
			return cur
		}
		if m.streamNow.CompareAndSwap(cur, ts) {
			m.behind.Store(0)
			return ts
		}
	}
}

// maybeSweep runs a full eviction sweep across every shard — quiet ones
// included — once per IdleTTL of stream time. Driving the sweep from the
// monitor-wide stream clock (rather than per-shard feeds) means devices
// on a shard that stops receiving traffic are still evicted as long as
// traffic flows anywhere. Called without any shard lock held; the CAS
// elects a single sweeping feeder.
func (m *Monitor) maybeSweep() {
	if m.cfg.IdleTTL <= 0 {
		return
	}
	if m.behind.Load() > 0 {
		// Recent transactions arrived far behind the clock — either a
		// stale replay burst or a clock poisoned by a corrupt far-future
		// timestamp (e.g. as the first-ever transaction, where the init
		// is unclamped). Either way, evicting against a suspect clock
		// could wipe legitimately-timestamped devices; hold off until
		// the stream looks sane again (or the regression snaps the clock
		// back and resets the count).
		return
	}
	now := m.streamNow.Load()
	last := m.lastSweep.Load()
	if now-last < int64(m.cfg.IdleTTL) || !m.lastSweep.CompareAndSwap(last, now) {
		return
	}
	cutoff := time.Unix(0, now).Add(-m.cfg.IdleTTL)
	future := time.Unix(0, now).Add(m.cfg.IdleTTL)
	for _, sh := range m.shards {
		sh.mu.Lock()
		for device, tr := range sh.devices {
			// A lastSeen more than IdleTTL ahead of the clock means the
			// clock moved backwards under the device: either its lastSeen
			// is a remnant of a corrupt timestamp, or the clock
			// legitimately regressed after a stale replay burst. Touch
			// rather than evict — live devices keep their identification
			// state, and a true remnant simply idles out one TTL later.
			if tr.lastSeen.After(future) {
				tr.lastSeen = time.Unix(0, now)
				continue
			}
			// Strictly idle longer than IdleTTL: a device seen at the
			// clock's own time must survive one maximal (clamped) clock
			// jump, or a single corrupt timestamp could still evict it.
			if tr.lastSeen.Before(cutoff) {
				m.evictLocked(sh, device, tr)
			}
		}
		sh.mu.Unlock()
	}
}

// evictLocked drops one idle device. With a spill store configured the
// device's state is serialized into the store instead — no windows are
// flushed and no alert fires, so the device resumes mid-streak when its
// next transaction rehydrates it. Without a store (or if the store
// refuses the blob) the seed behaviour applies: pending windows are
// flushed and, if an identity is still confirmed after the flush, a final
// AlertLost fires (with a zero Event.Window — there is no closing window
// for a silent departure), so continuous-authentication consumers always
// see the session end.
func (m *Monitor) evictLocked(sh *monitorShard, device string, tr *deviceTrack) {
	if m.cfg.Spill != nil && m.spillLocked(device, tr) == nil {
		delete(sh.devices, device)
		return
	}
	m.process(device, tr, tr.id.Flush())
	if tr.current != "" {
		m.emit(Alert{
			Device: device, Kind: AlertLost,
			User: tr.current, Previous: tr.current,
		})
	}
	delete(sh.devices, device)
}

// spillLocked serializes one device into the spill store. Runs under the
// device's shard lock; the caller removes the device from the shard on
// success.
func (m *Monitor) spillLocked(device string, tr *deviceTrack) error {
	return m.cfg.Spill.Put(device, EncodeDeviceState(deviceStateLocked(device, tr)))
}

// Checkpoint spills every tracked device into the configured spill store
// and stops tracking it, then flushes the store, returning the number of
// devices persisted — the graceful-shutdown path of a daemon with
// durable state (profilerd's SIGTERM handler): after a restart over the
// same store, each device rehydrates on its next transaction with its
// window buffer and streaks intact. No windows are flushed and no alerts
// fire. The sweep never aborts early: devices whose spill fails stay
// tracked (and live), the per-device errors come back joined, and the
// counts say exactly what the store holds versus what stayed in memory —
// so a restart, or the operator reading the shutdown log, knows what it
// has. Call Flush instead for lossy end-of-stream semantics. Feeding
// concurrently with Checkpoint is safe but the interleaving decides which
// side a racing device lands on.
func (m *Monitor) Checkpoint() (spilled, failed int, err error) {
	if m.cfg.Spill == nil {
		return 0, 0, fmt.Errorf("core: Checkpoint needs MonitorConfig.Spill")
	}
	spilled, failed, err = m.spillDevices(nil)
	if err != nil {
		err = fmt.Errorf("core: checkpoint spilled %d devices, %d failed and stay tracked: %w", spilled, failed, err)
	}
	return spilled, failed, err
}

// spillDevices spills the named tracked devices (every tracked device
// for a nil list) into the spill store and stops tracking them, then
// flushes the store — the body Checkpoint and Park share. Untracked
// names are skipped; a device whose spill fails stays tracked, and its
// error comes back joined with the rest.
func (m *Monitor) spillDevices(devices []string) (spilled, failed int, err error) {
	var errs []error
	spill := func(sh *monitorShard, device string, tr *deviceTrack) {
		if err := m.spillLocked(device, tr); err != nil {
			errs = append(errs, err)
			failed++
			return
		}
		delete(sh.devices, device)
		spilled++
	}
	if devices == nil {
		for _, sh := range m.shards {
			sh.mu.Lock()
			for device, tr := range sh.devices {
				spill(sh, device, tr)
			}
			sh.mu.Unlock()
		}
	}
	for _, device := range devices {
		sh := m.shardFor(device)
		sh.mu.Lock()
		if tr, ok := sh.devices[device]; ok {
			spill(sh, device, tr)
		}
		sh.mu.Unlock()
	}
	if ferr := m.cfg.Spill.Flush(); ferr != nil {
		errs = append(errs, fmt.Errorf("core: flushing spill store: %w", ferr))
	}
	return spilled, failed, errors.Join(errs...)
}

// Park hands the named devices to the spill store — the shared state
// tier — so that another monitor on the same tier can take them over:
// each live device is spilled and stops being tracked, then the store is
// flushed, and the device rehydrates wherever its next transaction goes.
// Devices not tracked here are skipped (an idle device is already in the
// store), as are duplicates and empty names, so parking the same devices
// again spills nothing. It returns how many of the named devices the
// move carries: all of them but those whose spill failed, which stay
// tracked here. A failed spill or flush fails the park. Alerts already
// enqueued for the parked devices still deliver here; call Sync to wait
// for them before another monitor takes the devices over.
func (m *Monitor) Park(devices []string) (int, error) {
	if m.cfg.Spill == nil {
		return 0, errors.New("core: parking devices needs a state tier (MonitorConfig.Spill)")
	}
	devices = uniqueDevices(devices)
	_, failed, err := m.spillDevices(devices)
	return len(devices) - failed, err
}

// Rehydrate starts tracking the named devices that the spill store holds
// and this monitor does not, restoring each exactly as its next
// transaction would — so a Flush then completes their pending windows
// too. A device the store does not hold is skipped. It returns how many
// devices it rehydrated; a device whose state cannot be read or restored
// is skipped with its error joined into the result.
func (m *Monitor) Rehydrate(devices []string) (int, error) {
	if m.cfg.Spill == nil {
		return 0, nil
	}
	n := 0
	var errs []error
	for _, device := range uniqueDevices(devices) {
		sh := m.shardFor(device)
		sh.mu.Lock()
		if _, live := sh.devices[device]; !live {
			tr, err := m.rehydrateLocked(sh, strings.Clone(device))
			if tr != nil {
				n++
			}
			errs = append(errs, err)
		}
		sh.mu.Unlock()
	}
	return n, errors.Join(errs...)
}

// uniqueDevices returns devices without empty names and duplicates,
// keeping first occurrences in order. The result is never nil.
func uniqueDevices(devices []string) []string {
	out := make([]string, 0, len(devices))
	seen := make(map[string]struct{}, len(devices))
	for _, device := range devices {
		if _, dup := seen[device]; dup || device == "" {
			continue
		}
		seen[device] = struct{}{}
		out = append(out, device)
	}
	return out
}

// TrackedDevices returns the names of the devices live in this monitor,
// sorted. Spilled devices are not listed: the state tier holds the whole
// fleet's devices, and a spilled device belongs to whichever monitor its
// next transaction reaches. This is what lets a placement mover with no
// memory of past routing ask a node "who do you hold?" and compute
// drains from the answer.
func (m *Monitor) TrackedDevices() []string {
	var names []string
	for _, sh := range m.shards {
		sh.mu.Lock()
		for device := range sh.devices {
			names = append(names, device)
		}
		sh.mu.Unlock()
	}
	slices.Sort(names)
	return names
}

// Flush completes all devices' pending windows (end of stream), emits any
// final alerts, and waits until every alert enqueued so far has been
// delivered to the callback. Flushing concurrently with Feed/FeedBatch is
// safe, but alerts caused by feeds that complete after Flush begins may
// be delivered after it returns — call it once feeding has stopped for
// end-of-stream semantics.
func (m *Monitor) Flush() {
	for _, sh := range m.shards {
		sh.mu.Lock()
		for device, tr := range sh.devices {
			m.process(device, tr, tr.id.Flush())
		}
		sh.mu.Unlock()
	}
	m.pump.wait()
}

// Sync blocks until every alert enqueued so far has been delivered to the
// callback, without flushing any windows — the ordering barrier a device
// move needs: after Park+Sync, all of the parked devices' alerts have
// left this monitor, so the new owner's alerts are strictly later.
// Syncing concurrently with feeding is safe; alerts enqueued after Sync
// begins may or may not be waited for.
func (m *Monitor) Sync() {
	m.pump.wait()
}

// Close waits for outstanding alert deliveries and stops the delivery
// goroutine. Call it after feeding has stopped (typically after Flush);
// feeding a closed monitor panics. Close is idempotent. Monitors dropped
// without Close are reclaimed by a GC cleanup unless the alert callback
// itself keeps the Monitor reachable.
func (m *Monitor) Close() {
	m.pump.wait()
	m.pump.halt()
	<-m.pump.drained
}

// Devices returns the number of devices currently tracked.
func (m *Monitor) Devices() int {
	n := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		n += len(sh.devices)
		sh.mu.Unlock()
	}
	return n
}

// Current returns the confirmed user on a device ("" if none).
func (m *Monitor) Current(device string) string {
	sh := m.shardFor(device)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if tr, ok := sh.devices[device]; ok {
		return tr.current
	}
	return ""
}

// process turns identification events into alerts, enqueued for the
// delivery goroutine in event order.
func (m *Monitor) process(device string, tr *deviceTrack, events []Event) {
	for _, ev := range events {
		switch {
		case ev.Identified != "" && ev.Identified != tr.current:
			m.emit(Alert{
				Device: device, Kind: AlertIdentified,
				User: ev.Identified, Previous: tr.current, Event: ev,
			})
			tr.current = ev.Identified
		case ev.Identified == "" && tr.current != "":
			m.emit(Alert{
				Device: device, Kind: AlertLost,
				User: tr.current, Previous: tr.current, Event: ev,
			})
			tr.current = ""
		}
	}
}

func (m *Monitor) emit(a Alert) {
	m.pump.emit(a)
}
