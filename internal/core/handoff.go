package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Two-phase shard handoff. Moving a device between monitors must never
// leave two live copies of it, even when an acknowledgement is lost: if
// an importer applied a blob but its reply never arrived, a mover that
// re-adopts at the source strands a stale copy on the destination. The
// staged API closes that window by making both sides hold the state
// revocably under a caller-chosen handoff id:
//
//   - ExportStaged serializes and stops tracking the devices, but keeps
//     the decoded states in a holding area. The source can re-adopt them
//     (AbortHandoff) or release them (CommitHandoff) later; until then
//     the devices are gone from the live shards but not from this
//     process.
//   - StageImport decodes and validates a blob but keeps the devices
//     invisible — they are not tracked, not fed, not exported — until
//     CommitHandoff adopts them atomically or AbortHandoff drops them.
//
// Every operation is idempotent per id, so a caller whose reply was lost
// simply retries: a re-staged id returns the held blob or count again, a
// re-committed id reports the recorded count, and aborting an id this
// monitor never saw (or already aborted) is a no-op. Committing is
// remembered (bounded, see recentCommitCap) precisely so a retried
// commit after a lost reply is distinguishable from a commit of state
// that was lost with a process restart — the latter reports
// ErrUnknownHandoff, the definitive signal that the staged copy is gone
// and the mover must fall back to the source copy.
//
// On a SharedSpill monitor the state travels through the shared tier
// instead of the blob. ExportStaged parks the moving devices — spills
// them and flushes the store — and returns a blob holding none, so
// commit and abort have nothing to adopt. The new owner rehydrates each
// device on its next transaction (Get, restore, Delete); that Get
// teaches its tier client the device's version, so no version has to
// travel with the move. After an abort, a parked device rehydrates on
// the source just the same. This is what keeps the staged protocol for
// private stores only: without a versioned store nothing else resolves a
// lost import acknowledgement safely.

// ErrUnknownHandoff reports a commit or stage lookup for an id this
// monitor holds no state for — typically because the process restarted
// (staged state is in-memory only) or a StagedTTL sweep reclaimed an
// abandoned staging. For a commit this is definitive: the staged copy no
// longer exists, so the caller can safely fall back to the source copy.
var ErrUnknownHandoff = errors.New("core: unknown handoff id")

// ErrHandoffCommitted reports an abort of an already-committed handoff.
// The devices live on the committed side now; re-adopting them at the
// source would fork their state.
var ErrHandoffCommitted = errors.New("core: handoff already committed")

// recentCommitCap bounds the committed-id memory backing commit
// idempotency. 512 ids is orders of magnitude more than the handoffs a
// router keeps in flight; the memory exists to absorb one lost reply's
// retry horizon, not to be a durable log.
const recentCommitCap = 512

// handoffEntry is one staged handoff's held state. Export holdings keep
// the encoded blob too, so a retried ExportStaged returns identical
// bytes.
type handoffEntry struct {
	states []DeviceState
	blob   []byte
	// parked counts the devices an export left to the shared tier rather
	// than putting them in the blob.
	parked int
	// stagedImport distinguishes an importer-side staging (droppable: the
	// authoritative copy is still at the source) from an exporter-side
	// holding (never swept: it is the authoritative copy).
	stagedImport bool
	// stagedAt is the stream time the staging was observed, for the
	// StagedTTL sweep. Zero until traffic establishes a stream clock.
	stagedAt int64
}

// ExportStaged serializes and stops tracking the named devices but holds
// their states under id, so the caller can AbortHandoff (re-adopt them
// here) or CommitHandoff (release them) once the fate of the move is
// known. Devices not currently tracked are looked up in the spill store
// (they may have been idle-evicted there) and exported from it; devices
// unknown to both, duplicates and empty names are skipped. On a
// SharedSpill monitor the live devices are parked in the tier instead
// and the blob holds no devices; idle ones are already there. The
// returned count is the number of devices the move carries, in the blob
// or through the tier. Alerts already enqueued for the exported devices
// still deliver here; call Sync to wait for them before handing the blob
// on.
//
// A failed spill or flush fails the export; the devices it could park
// stay parked and rehydrate wherever their next transaction goes, and a
// device whose spill failed stays tracked here. Calling ExportStaged
// again with the same id returns the identical held blob without
// touching the live shards, so a mover whose reply was lost retries
// safely. Exporting under a recently committed id is an error.
func (m *Monitor) ExportStaged(id string, devices []string) ([]byte, int, error) {
	if id == "" {
		return nil, 0, fmt.Errorf("core: empty handoff id")
	}
	m.hmu.Lock()
	defer m.hmu.Unlock()
	if _, done := m.recentCommits[id]; done {
		return nil, 0, fmt.Errorf("core: exporting handoff %q: %w", id, ErrHandoffCommitted)
	}
	if e, ok := m.handoffs[id]; ok {
		if e.stagedImport {
			return nil, 0, fmt.Errorf("core: handoff %q is a staged import here", id)
		}
		return e.blob, len(e.states) + e.parked, nil
	}
	devices = uniqueDevices(devices)
	var states []DeviceState
	var errs []error
	parked := 0
	if m.cfg.SharedSpill {
		_, failed, err := m.spillDevices(devices)
		parked = len(devices) - failed
		errs = append(errs, err)
	} else {
		states, errs = m.collectDeviceStates(devices)
		sort.Slice(states, func(a, b int) bool { return states[a].Device < states[b].Device })
	}
	blob := encodeShardState(states)
	m.putHandoffLocked(id, &handoffEntry{states: states, blob: blob, parked: parked, stagedAt: m.streamNow.Load()})
	return blob, len(states) + parked, errors.Join(errs...)
}

// StageImport decodes and validates a shard-state blob and holds its
// devices invisibly under id: they are not tracked or fed until
// CommitHandoff adopts them, and AbortHandoff (or a StagedTTL sweep, or
// a process restart) drops them without touching live state. Re-staging
// an id already held returns its count again; the blob is trusted to be
// the same — handoff ids are single-use per move. It returns the number
// of devices staged.
func (m *Monitor) StageImport(id string, data []byte) (int, error) {
	if id == "" {
		return 0, fmt.Errorf("core: empty handoff id")
	}
	m.hmu.Lock()
	defer m.hmu.Unlock()
	if _, done := m.recentCommits[id]; done {
		return 0, fmt.Errorf("core: staging handoff %q: %w", id, ErrHandoffCommitted)
	}
	if e, ok := m.handoffs[id]; ok {
		if !e.stagedImport {
			return 0, fmt.Errorf("core: handoff %q is an export holding here", id)
		}
		return len(e.states), nil
	}
	states, err := decodeShardState(data, m.set.Vocabulary)
	if err != nil {
		return 0, err
	}
	if m.cfg.SharedSpill && len(states) > 0 {
		// Only a peer on a private store sends devices in the blob;
		// adopting them would spill them later at versions this monitor's
		// tier client never learned.
		return 0, fmt.Errorf("core: handoff %q carries %d devices, but a monitor on a shared state tier takes devices only through the tier", id, len(states))
	}
	m.putHandoffLocked(id, &handoffEntry{states: states, stagedImport: true, stagedAt: m.streamNow.Load()})
	return len(states), nil
}

// CommitHandoff finishes a handoff: a staged import is adopted into the
// live shards atomically (all devices or none), an export holding is
// released. The committed id is remembered (bounded), so a retried
// commit after a lost reply reports the same count instead of
// ErrUnknownHandoff. A failed adoption — a device already tracked, or a
// state this monitor's profiles cannot restore — leaves the staging
// intact and the handoff uncommitted, so the caller can abort and fall
// back to the source copy.
func (m *Monitor) CommitHandoff(id string) (int, error) {
	m.hmu.Lock()
	defer m.hmu.Unlock()
	if n, done := m.recentCommits[id]; done {
		return n, nil
	}
	e, ok := m.handoffs[id]
	if !ok {
		return 0, fmt.Errorf("core: committing handoff %q: %w", id, ErrUnknownHandoff)
	}
	n := len(e.states) + e.parked
	if e.stagedImport {
		if err := m.adoptStatesAtomic(e.states); err != nil {
			return 0, fmt.Errorf("core: committing handoff %q: %w", id, err)
		}
	}
	m.dropHandoffLocked(id)
	m.recentCommits[id] = n
	m.commitOrder = append(m.commitOrder, id)
	if len(m.commitOrder) > recentCommitCap {
		delete(m.recentCommits, m.commitOrder[0])
		m.commitOrder = m.commitOrder[1:]
	}
	return n, nil
}

// AbortHandoff cancels a handoff: a staged import is dropped (the
// authoritative copy is still at the source), an export holding is
// re-adopted into the live shards atomically — the automatic recovery
// path when the other side refused or vanished. Aborting an id this
// monitor holds nothing for is an idempotent no-op reporting 0; aborting
// a committed id is ErrHandoffCommitted, because the devices live on
// the other side now.
func (m *Monitor) AbortHandoff(id string) (int, error) {
	m.hmu.Lock()
	defer m.hmu.Unlock()
	if _, done := m.recentCommits[id]; done {
		return 0, fmt.Errorf("core: aborting handoff %q: %w", id, ErrHandoffCommitted)
	}
	e, ok := m.handoffs[id]
	if !ok {
		return 0, nil
	}
	if !e.stagedImport {
		if err := m.adoptStatesAtomic(e.states); err != nil {
			return 0, fmt.Errorf("core: aborting handoff %q: %w", id, err)
		}
	}
	n := len(e.states)
	m.dropHandoffLocked(id)
	return n, nil
}

// PendingHandoffs reports how many handoffs are currently staged here
// (import stagings plus export holdings) — an observability and test
// hook for the staging lifecycle.
func (m *Monitor) PendingHandoffs() int {
	m.hmu.Lock()
	defer m.hmu.Unlock()
	return len(m.handoffs)
}

func (m *Monitor) putHandoffLocked(id string, e *handoffEntry) {
	if m.handoffs == nil {
		m.handoffs = make(map[string]*handoffEntry)
		m.recentCommits = make(map[string]int)
	}
	m.handoffs[id] = e
	if e.stagedImport {
		m.stagedImports.Add(1)
	}
}

func (m *Monitor) dropHandoffLocked(id string) {
	if e, ok := m.handoffs[id]; ok && e.stagedImport {
		m.stagedImports.Add(-1)
	}
	delete(m.handoffs, id)
}

// sweepStagedImports reclaims import stagings older than StagedTTL in
// stream time — abandoned by a mover that died between stage and
// commit. Only import stagings are swept: dropping one loses nothing
// (the source still holds the authoritative copy, and a later commit
// for the id reports ErrUnknownHandoff, telling the mover exactly
// that). Export holdings are never swept — they ARE the authoritative
// copy and are bounded by the mover's in-flight handoffs, not by time.
// A staging observed before any traffic established the stream clock is
// stamped at the first swept sight and ages from there.
func (m *Monitor) sweepStagedImports() {
	now := m.streamNow.Load()
	if now == 0 {
		return
	}
	m.hmu.Lock()
	defer m.hmu.Unlock()
	for id, e := range m.handoffs {
		if !e.stagedImport {
			continue
		}
		if e.stagedAt == 0 {
			e.stagedAt = now
			continue
		}
		if now-e.stagedAt > int64(m.cfg.StagedTTL) {
			m.dropHandoffLocked(id)
		}
	}
}

// adoptStatesAtomic restores every state and inserts all of them under
// their shard locks, or none: shards are locked in index order (the
// consistent order makes the multi-lock deadlock-free against
// single-shard feeders), every device is checked untracked and every
// state restored while the locks are held, and only then do the inserts
// happen. An error — a device already live here, or a state naming an
// unknown profile — leaves the monitor untouched.
func (m *Monitor) adoptStatesAtomic(states []DeviceState) error {
	if len(states) == 0 {
		return nil
	}
	byShard := make(map[*monitorShard][]DeviceState)
	shardIdx := make(map[*monitorShard]int)
	for i, sh := range m.shards {
		shardIdx[sh] = i
	}
	for _, st := range states {
		sh := m.shardFor(st.Device)
		byShard[sh] = append(byShard[sh], st)
	}
	locked := make([]*monitorShard, 0, len(byShard))
	for sh := range byShard {
		locked = append(locked, sh)
	}
	sort.Slice(locked, func(a, b int) bool { return shardIdx[locked[a]] < shardIdx[locked[b]] })
	unlock := func() {
		for i := len(locked) - 1; i >= 0; i-- {
			locked[i].mu.Unlock()
		}
	}
	for _, sh := range locked {
		sh.mu.Lock()
	}
	type pending struct {
		sh     *monitorShard
		device string
		tr     *deviceTrack
	}
	adopts := make([]pending, 0, len(states))
	for _, sh := range locked {
		for _, st := range byShard[sh] {
			if _, exists := sh.devices[st.Device]; exists {
				unlock()
				return fmt.Errorf("core: device %s already tracked, adoption refused", st.Device)
			}
			// The map key outlives the blob st was decoded from.
			device := strings.Clone(st.Device)
			tr, err := m.restoreTrackLocked(sh, device, st)
			if err != nil {
				unlock()
				return err
			}
			adopts = append(adopts, pending{sh, device, tr})
		}
	}
	for _, p := range adopts {
		p.sh.devices[p.device] = p.tr
	}
	unlock()
	return nil
}

// uniqueDevices returns devices without empty names and duplicates,
// keeping first occurrences in order.
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

// collectDeviceStates serializes and stops tracking the named (unique,
// non-empty) devices — ExportStaged's harvesting pass on a private store.
// Untracked devices are looked up in the spill store; devices unknown to
// both are skipped. Per-device spill failures are reported in the
// returned slice without stopping the harvest.
func (m *Monitor) collectDeviceStates(devices []string) ([]DeviceState, []error) {
	states := make([]DeviceState, 0, len(devices))
	var errs []error
	for _, device := range devices {
		sh := m.shardFor(device)
		sh.mu.Lock()
		if tr, ok := sh.devices[device]; ok {
			states = append(states, deviceStateLocked(device, tr))
			delete(sh.devices, device)
			sh.mu.Unlock()
			continue
		}
		sh.mu.Unlock()
		if m.cfg.Spill == nil {
			continue
		}
		blob, ok, err := m.cfg.Spill.Get(device)
		if err != nil {
			errs = append(errs, fmt.Errorf("core: exporting spilled device %s: %w", device, err))
			continue
		}
		if !ok {
			continue
		}
		st, err := DecodeDeviceState(blob, m.set.Vocabulary)
		if err == nil && st.Device != device {
			err = fmt.Errorf("core: spilled state for device %s names device %s", device, st.Device)
		}
		if err != nil {
			// Corrupt spill copy: leave it for the admit path's
			// drop-and-restart handling rather than move garbage.
			errs = append(errs, err)
			continue
		}
		if err := m.cfg.Spill.Delete(device); err != nil {
			errs = append(errs, fmt.Errorf("core: exported spilled device %s but could not clear it: %w", device, err))
		}
		states = append(states, st)
	}
	return states, errs
}

// TrackedDevices returns the names of every device this monitor holds
// state for — live in the shards or idle-spilled into the store — sorted
// and deduplicated. Handoff stagings are excluded: staged devices are
// invisible until committed. This is what lets a placement mover with no
// memory of past routing ask a node "who do you hold?" and compute
// drains from the answer.
func (m *Monitor) TrackedDevices() ([]string, error) {
	var names []string
	for _, sh := range m.shards {
		sh.mu.Lock()
		for device := range sh.devices {
			names = append(names, device)
		}
		sh.mu.Unlock()
	}
	// A shared spill tier holds the whole fleet's devices; claiming them
	// all as this monitor's holdings would make every node report every
	// device. Only the private-store spill set belongs to this monitor.
	if m.cfg.Spill != nil && !m.cfg.SharedSpill {
		spilled, err := m.cfg.Spill.Devices()
		if err != nil {
			return nil, fmt.Errorf("core: listing spilled devices: %w", err)
		}
		names = append(names, spilled...)
	}
	sort.Strings(names)
	// A device can race an eviction and appear both live and spilled.
	out := names[:0]
	for i, name := range names {
		if i > 0 && name == names[i-1] {
			continue
		}
		out = append(out, name)
	}
	return out, nil
}
