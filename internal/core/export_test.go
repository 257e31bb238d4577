package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

// parkMove moves devices the way the cluster router does — Park and
// Sync on src; dst shares src's store and rehydrates each device on its
// next transaction — and returns the devices the park carried.
func parkMove(tb testing.TB, src *Monitor, devices []string) int {
	tb.Helper()
	n, err := src.Park(devices)
	if err != nil {
		tb.Fatalf("Park(%v): %v", devices, err)
	}
	src.Sync()
	return n
}

// TestMonitorExportDevicesMatchesReference moves an arbitrary subset of
// live devices between two monitors on one store mid-stream, naming
// them with duplicates and empty names, and checks the combined
// per-device alert sequences stay byte-identical to a single
// uninterrupted monitor — the primitive the cluster router's drain is
// built on.
func TestMonitorExportDevicesMatchesReference(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, devices := deviceStream(testDS, 6, 6000)
	const k = 2
	want := referenceAlerts(t, set, txs, k)

	tier := NewMemStateStore()
	col := newAlertCollector()
	src, err := NewMonitorWithConfig(set, k, col.callback, MonitorConfig{Shards: 4, Spill: tier})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewMonitorWithConfig(set, k, col.callback, MonitorConfig{Shards: 8, Spill: tier})
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
	if n := parkMove(t, src, []string{devices[1], devices[4], devices[1], ""}); n != 2 || tier.Len() != 2 {
		t.Fatalf("parked %d devices, store holds %d; want 2 and 2 (dups and empties skipped)", n, tier.Len())
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

// TestMonitorExportDevicesFromSpill checks that parking a device that
// was idle-evicted into the store spills nothing — it is already there —
// while still counting it as moved, and that it resumes from the store
// on the monitor its next transaction reaches.
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
	dst, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Spill: store})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if n := parkMove(t, src, []string{"10.0.0.1"}); n != 1 {
		t.Fatalf("parked %d devices, want 1", n)
	}
	if store.Len() != 1 || src.Devices() != 1 {
		t.Fatalf("after the park: store %d, source %d devices; want 1, 1 (nothing to spill)", store.Len(), src.Devices())
	}
	a.Timestamp = b.Timestamp
	if err := dst.Feed(a); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 || dst.Devices() != 1 {
		t.Errorf("after the next transaction: store %d, destination %d devices; want 0, 1", store.Len(), dst.Devices())
	}
}

// TestMonitorExportDevicesEmpty: parking nothing is a valid empty move —
// no device moves and the store is flushed — and a monitor with no
// store refuses to park, naming the state tier.
func TestMonitorExportDevicesEmpty(t *testing.T) {
	set, _ := sharedSet(t)
	store := &flushCountingStore{StateStore: NewMemStateStore()}
	m, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Spill: store})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, devices := range [][]string{nil, {}, {""}} {
		if n, err := m.Park(devices); err != nil || n != 0 {
			t.Fatalf("Park(%q) = %d, %v", devices, n, err)
		}
	}
	if store.flushes != 3 {
		t.Errorf("empty parks flushed the store %d times, want 3", store.flushes)
	}
	bare, err := NewMonitor(set, 2, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := bare.Park(nil); err == nil || !strings.Contains(err.Error(), "state tier") {
		t.Errorf("Park without a store = %v, want an error naming the state tier", err)
	}
}

// TestMonitorExportParkMatchesReference moves live devices between two
// monitors on one shared store: the park leaves them only in the store,
// tracked by neither monitor, and each rehydrates on the destination at
// its next transaction — with every alert byte-identical to one
// uninterrupted monitor.
func TestMonitorExportParkMatchesReference(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, devices := deviceStream(testDS, 6, 6000)
	const k = 2
	want := referenceAlerts(t, set, txs, k)

	tier := NewMemStateStore()
	col := newAlertCollector()
	cfg := MonitorConfig{Shards: 4, Spill: tier}
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
	if n := parkMove(t, src, []string{devices[1], devices[4]}); n != 2 {
		t.Fatalf("parked %d devices, want 2", n)
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
// device lands in the store and is no longer tracked or listed, the
// store is flushed before Park returns, and the parked device stays in
// the store until its next transaction rehydrates it.
func TestMonitorExportParksOnSharedTier(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, devices := deviceStream(testDS, 3, 600)
	store := &flushCountingStore{StateStore: NewMemStateStore()}
	mon, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Shards: 4, Spill: store})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	for _, tx := range txs {
		if err := mon.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := mon.Park(devices[:1]); err != nil || n != 1 {
		t.Fatalf("Park = %d, %v", n, err)
	}
	if store.flushes != 1 {
		t.Errorf("store flushed %d times during the park, want 1", store.flushes)
	}
	if _, ok, _ := store.Get(devices[0]); !ok {
		t.Fatal("parked device is not in the store")
	}
	if mon.Devices() != 2 {
		t.Fatalf("monitor tracks %d devices after the park, want 2", mon.Devices())
	}
	if listed := mon.TrackedDevices(); len(listed) != 2 {
		t.Errorf("TrackedDevices = %v; the parked device must not be claimed", listed)
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
// fails fails the park and stays tracked, while the others park; a
// flush failure fails the park too, because an unflushed park is not
// visible to the next owner.
func TestMonitorExportParkFailureKeepsDeviceLive(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, devices := deviceStream(testDS, 4, 800)
	store := selectiveStore{mem: NewMemStateStore(), deny: map[string]bool{devices[0]: true}}
	mon, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Shards: 4, Spill: store})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	for _, tx := range txs {
		if err := mon.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	n, err := mon.Park(devices[:3])
	if !errors.Is(err, errDeniedDevice) || n != 2 {
		t.Fatalf("Park = %d, %v; want the 2 parked devices and the denied Put", n, err)
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
	mon2, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Shards: 4, Spill: flaky})
	if err != nil {
		t.Fatal(err)
	}
	defer mon2.Close()
	for _, tx := range txs {
		if err := mon2.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mon2.Park(devices[:1]); err == nil || !errors.Is(err, flaky.flushErr) {
		t.Fatalf("Park over a failing flush = %v, want the flush error", err)
	}
}
