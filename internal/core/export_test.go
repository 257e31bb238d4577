package core

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"
)

// stagedMove runs the two-phase handoff the cluster router drives —
// ExportStaged and Sync on src, StageImport and CommitHandoff on dst,
// CommitHandoff on src — and returns the devices the export carried and
// the devices the blob handed to dst.
func stagedMove(tb testing.TB, src, dst *Monitor, id string, devices []string) (exported, imported int) {
	tb.Helper()
	blob, exported, err := src.ExportStaged(id, devices)
	if err != nil {
		tb.Fatalf("ExportStaged(%s): %v", id, err)
	}
	src.Sync()
	if imported, err = dst.StageImport(id, blob); err != nil {
		tb.Fatalf("StageImport(%s): %v", id, err)
	}
	if _, err := dst.CommitHandoff(id); err != nil {
		tb.Fatalf("importer CommitHandoff(%s): %v", id, err)
	}
	if _, err := src.CommitHandoff(id); err != nil {
		tb.Fatalf("exporter CommitHandoff(%s): %v", id, err)
	}
	return exported, imported
}

// TestMonitorExportDevicesMatchesReference moves an arbitrary subset of
// live devices between two monitors mid-stream via the staged handoff
// and checks the combined per-device alert sequences stay byte-identical
// to a single uninterrupted monitor — the primitive the cluster router's
// drain is built on.
func TestMonitorExportDevicesMatchesReference(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, devices := deviceStream(testDS, 6, 6000)
	const k = 2
	want := referenceAlerts(t, set, txs, k)

	col := newAlertCollector()
	src, err := NewMonitorWithConfig(set, k, col.callback, MonitorConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewMonitorWithConfig(set, k, col.callback, MonitorConfig{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	moved := map[string]bool{devices[1]: true, devices[4]: true}
	cut := len(txs) / 2
	for _, tx := range txs[:cut] {
		if err := src.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	n, imported := stagedMove(t, src, dst, "r/1", []string{devices[1], devices[4], devices[1], "", "10.255.0.9"})
	if n != 2 || imported != 2 {
		t.Fatalf("exported %d, imported %d devices, want 2 (dups, empties and unknowns skipped)", n, imported)
	}
	for _, tx := range txs[cut:] {
		m := src
		if moved[tx.SourceIP] {
			m = dst
		}
		if err := m.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	src.Flush()
	dst.Flush()
	src.Close()
	dst.Close()
	comparePerDevice(t, want, col.got)
}

// TestMonitorExportDevicesFromSpill checks that exporting a device that
// was idle-evicted into a private spill store pulls its state out of the
// store, and that the blob resumes it exactly on the importer.
func TestMonitorExportDevicesFromSpill(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, _ := deviceStream(testDS, 1, 40)
	store := NewMemStateStore()
	const ttl = 10 * time.Minute
	src, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Shards: 2, IdleTTL: ttl, Spill: store})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	a := txs[0]
	a.SourceIP = "10.0.0.1"
	if err := src.Feed(a); err != nil {
		t.Fatal(err)
	}
	// Another device's traffic ages 10.0.0.1 out into the store.
	b := txs[0]
	b.SourceIP = "10.0.0.2"
	for i := 0; i < 5; i++ {
		b.Timestamp = a.Timestamp.Add(time.Duration(i+2) * ttl)
		if err := src.Feed(b); err != nil {
			t.Fatal(err)
		}
	}
	if store.Len() != 1 {
		t.Fatalf("spilled devices = %d, want 1", store.Len())
	}
	dst, err := NewMonitor(set, 2, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if n, imported := stagedMove(t, src, dst, "r/1", []string{"10.0.0.1"}); n != 1 || imported != 1 {
		t.Fatalf("exported %d, imported %d devices, want 1", n, imported)
	}
	if store.Len() != 0 {
		t.Error("export left the spilled blob behind")
	}
	if dst.Devices() != 1 {
		t.Errorf("importer tracks %d devices, want 1", dst.Devices())
	}
}

// TestMonitorExportDevicesEmpty: exporting nothing (or only unknowns)
// yields a valid empty blob that imports as zero devices.
func TestMonitorExportDevicesEmpty(t *testing.T) {
	set, _ := sharedSet(t)
	m, err := NewMonitor(set, 2, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	blob, n, err := m.ExportStaged("r/1", []string{"10.1.2.3"})
	if err != nil || n != 0 {
		t.Fatalf("ExportStaged = %d, %v", n, err)
	}
	if got, err := m.StageImport("r/2", blob); err != nil || got != 0 {
		t.Fatalf("StageImport of empty export = %d, %v", got, err)
	}
}

// TestMonitorExportParkMatchesReference moves live devices between two
// monitors on one shared store: the export parks them there and carries
// none in its blob, and each rehydrates on the importer's side at its
// next transaction — with every alert byte-identical to one
// uninterrupted monitor.
func TestMonitorExportParkMatchesReference(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, devices := deviceStream(testDS, 6, 6000)
	const k = 2
	want := referenceAlerts(t, set, txs, k)

	tier := NewMemStateStore()
	col := newAlertCollector()
	cfg := MonitorConfig{Shards: 4, Spill: tier, SharedSpill: true}
	src, err := NewMonitorWithConfig(set, k, col.callback, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 8
	dst, err := NewMonitorWithConfig(set, k, col.callback, cfg)
	if err != nil {
		t.Fatal(err)
	}
	moved := map[string]bool{devices[1]: true, devices[4]: true}
	cut := len(txs) / 2
	for _, tx := range txs[:cut] {
		if err := src.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	n, imported := stagedMove(t, src, dst, "r/1", []string{devices[1], devices[4], devices[1], ""})
	if n != 2 || imported != 0 {
		t.Fatalf("exported %d, imported %d devices, want 2 through the tier and 0 in the blob", n, imported)
	}
	if tier.Len() != 2 || src.Devices() != 4 || dst.Devices() != 0 {
		t.Fatalf("after the park: tier %d, src %d, dst %d devices; want 2, 4, 0", tier.Len(), src.Devices(), dst.Devices())
	}
	for _, tx := range txs[cut:] {
		m := src
		if moved[tx.SourceIP] {
			m = dst
		}
		if err := m.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	if tier.Len() != 0 || dst.Devices() != 2 {
		t.Fatalf("after rehydration: tier %d, dst %d devices; want 0, 2", tier.Len(), dst.Devices())
	}
	src.Flush()
	dst.Flush()
	src.Close()
	dst.Close()
	comparePerDevice(t, want, col.got)
}

// flushCountingStore counts Flush calls and can fail them.
type flushCountingStore struct {
	StateStore
	flushes  int
	flushErr error
}

func (s *flushCountingStore) Flush() error {
	s.flushes++
	return s.flushErr
}

// TestMonitorExportParksOnSharedTier pins the park's effects: the live
// device lands in the store and is no longer tracked, the store is
// flushed before ExportStaged returns, the blob holds no device, and an
// abort leaves the parked device in the store for its next transaction
// to rehydrate.
func TestMonitorExportParksOnSharedTier(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, devices := deviceStream(testDS, 3, 600)
	store := &flushCountingStore{StateStore: NewMemStateStore()}
	mon, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Shards: 4, Spill: store, SharedSpill: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	for _, tx := range txs {
		if err := mon.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	blob, n, err := mon.ExportStaged("r/1", devices[:1])
	if err != nil || n != 1 {
		t.Fatalf("ExportStaged = %d, %v", n, err)
	}
	if states, err := decodeShardState(blob, set.Vocabulary); err != nil || len(states) != 0 {
		t.Fatalf("parking blob holds %d devices (%v), want none", len(states), err)
	}
	if store.flushes != 1 {
		t.Errorf("store flushed %d times during the export, want 1", store.flushes)
	}
	if _, ok, _ := store.Get(devices[0]); !ok {
		t.Fatal("parked device is not in the store")
	}
	if mon.Devices() != 2 {
		t.Fatalf("monitor tracks %d devices after the park, want 2", mon.Devices())
	}
	if listed, err := mon.TrackedDevices(); err != nil || len(listed) != 2 {
		t.Errorf("TrackedDevices = %v, %v; the parked device must not be claimed", listed, err)
	}
	if got, err := mon.AbortHandoff("r/1"); err != nil || got != 0 {
		t.Fatalf("AbortHandoff = %d, %v; a park re-adopts nothing", got, err)
	}
	if _, ok, _ := store.Get(devices[0]); !ok || mon.Devices() != 2 {
		t.Fatal("abort moved the parked device out of the store")
	}
	next := txs[0]
	for _, tx := range txs {
		if tx.SourceIP == devices[0] {
			next = tx
		}
	}
	if err := mon.Feed(next); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := store.Get(devices[0]); ok || mon.Devices() != 3 {
		t.Fatal("the parked device did not rehydrate on its next transaction")
	}
}

// TestMonitorExportParkFailureKeepsDeviceLive: a device whose park Put
// fails fails the export and stays tracked, while the others park; a
// flush failure fails the export too, because an unflushed park is not
// visible to the next owner.
func TestMonitorExportParkFailureKeepsDeviceLive(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, devices := deviceStream(testDS, 4, 800)
	store := selectiveStore{mem: NewMemStateStore(), deny: map[string]bool{devices[0]: true}}
	mon, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Shards: 4, Spill: store, SharedSpill: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	for _, tx := range txs {
		if err := mon.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = mon.ExportStaged("r/1", devices[:3])
	if !errors.Is(err, errDeniedDevice) {
		t.Fatalf("ExportStaged error = %v, want the denied Put", err)
	}
	if mon.Devices() != 2 {
		t.Errorf("monitor tracks %d devices, want the denied one and the unmoved one", mon.Devices())
	}
	inStore, _ := store.Devices()
	parked := append([]string(nil), devices[1:3]...)
	sort.Strings(parked)
	if fmt.Sprint(inStore) != fmt.Sprint(parked) {
		t.Errorf("store holds %v, want the two parked devices %v", inStore, devices[1:3])
	}

	flaky := &flushCountingStore{StateStore: NewMemStateStore(), flushErr: errors.New("tier unreachable")}
	mon2, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Shards: 4, Spill: flaky, SharedSpill: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mon2.Close()
	for _, tx := range txs {
		if err := mon2.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := mon2.ExportStaged("r/1", devices[:1]); err == nil || !errors.Is(err, flaky.flushErr) {
		t.Fatalf("ExportStaged over a failing flush = %v, want the flush error", err)
	}
}

// TestSharedSpillRefusesStagedImportDevices: a monitor on a shared tier
// takes devices only through the tier, so a blob that carries devices —
// which only a peer on a private store sends — is refused at staging,
// while an empty one (a parking export's) stages as before.
func TestSharedSpillRefusesStagedImportDevices(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, devices := deviceStream(testDS, 2, 400)
	private, err := NewMonitor(set, 2, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	defer private.Close()
	for _, tx := range txs {
		if err := private.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	blob, n, err := private.ExportStaged("r/1", devices)
	if err != nil || n != 2 {
		t.Fatalf("ExportStaged = %d, %v", n, err)
	}
	shared, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Spill: NewMemStateStore(), SharedSpill: true})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	if got, err := shared.StageImport("r/1", blob); err == nil {
		t.Fatalf("shared-tier monitor staged %d devices from a blob", got)
	}
	if shared.PendingHandoffs() != 0 {
		t.Error("the refused import left a staging behind")
	}
	if got, err := shared.StageImport("r/2", encodeShardState(nil)); err != nil || got != 0 {
		t.Errorf("StageImport of an empty blob = %d, %v", got, err)
	}
	// The refusal leaves the exporter's holding intact for the abort.
	if got, err := private.AbortHandoff("r/1"); err != nil || got != 2 {
		t.Errorf("AbortHandoff = %d, %v; want both devices re-adopted", got, err)
	}
}
