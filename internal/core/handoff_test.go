package core

import (
	"strings"
	"testing"
	"time"

	"webtxprofile/internal/weblog"
)

// TestHandoffCommitMatchesReference drives a whole move between two
// monitors on one store — park and Sync on the source, rehydration on
// the destination at each device's next transaction — and checks the
// combined per-device alert sequences stay byte-identical to one
// uninterrupted monitor. A retried park (the router's answer to a lost
// reply) reports the same count and spills nothing.
func TestHandoffCommitMatchesReference(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, devices := deviceStream(testDS, 6, 6000)
	const k = 2
	want := referenceAlerts(t, set, txs, k)

	tier := &flushCountingStore{StateStore: NewMemStateStore()}
	col := newAlertCollector()
	src, err := NewMonitorWithConfig(set, k, col.callback, MonitorConfig{Shards: 4, Spill: tier})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewMonitorWithConfig(set, k, col.callback, MonitorConfig{Shards: 8, Spill: tier})
	if err != nil {
		t.Fatal(err)
	}
	moved := map[string]bool{devices[0]: true, devices[3]: true}
	cut := len(txs) / 2
	for _, tx := range txs[:cut] {
		if err := src.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}

	parked := []string{devices[0], devices[3]}
	if n, err := src.Park(parked); err != nil || n != 2 {
		t.Fatalf("Park = %d, %v", n, err)
	}
	before := tier.StateStore.(*MemStateStore).Len()
	if n, err := src.Park(parked); err != nil || n != 2 {
		t.Fatalf("retried Park = %d, %v; want the same count", n, err)
	}
	if after := tier.StateStore.(*MemStateStore).Len(); after != before || tier.flushes != 2 {
		t.Fatalf("retried Park changed the store (%d → %d devices) or skipped its flush (%d flushes)", before, after, tier.flushes)
	}
	src.Sync()
	if dst.Devices() != 0 {
		t.Fatalf("parked devices appeared on the destination before any transaction: %d tracked", dst.Devices())
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
	if dst.Devices() != 2 {
		t.Fatalf("destination tracks %d devices after their next transactions, want 2", dst.Devices())
	}
	src.Flush()
	dst.Flush()
	src.Close()
	dst.Close()
	comparePerDevice(t, want, col.got)
}

// TestHandoffAbortReadopts parks devices and then sends their next
// transactions back to the source — what the router does when a move
// fails after the park — and checks they resume there with nothing
// lost: the alert stream stays byte-identical to a monitor that never
// parked anything.
func TestHandoffAbortReadopts(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, devices := deviceStream(testDS, 4, 4000)
	const k = 2
	want := referenceAlerts(t, set, txs, k)

	tier := NewMemStateStore()
	col := newAlertCollector()
	src, err := NewMonitorWithConfig(set, k, col.callback, MonitorConfig{Shards: 4, Spill: tier})
	if err != nil {
		t.Fatal(err)
	}
	cut := len(txs) / 2
	for _, tx := range txs[:cut] {
		if err := src.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := src.Park(devices[:2]); err != nil || n != 2 {
		t.Fatalf("Park = %d, %v", n, err)
	}
	if tier.Len() != 2 || src.Devices() != 2 {
		t.Fatalf("after the park: store %d, source %d devices; want 2, 2", tier.Len(), src.Devices())
	}
	for _, tx := range txs[cut:] {
		if err := src.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	if tier.Len() != 0 {
		t.Fatalf("%d parked devices never rehydrated on the source", tier.Len())
	}
	src.Flush()
	src.Close()
	comparePerDevice(t, want, col.got)
}

// TestHandoffLifecycleErrors pins the park contract the router's
// protocol depends on: a monitor with no store refuses to park, naming
// the state tier; parking nothing is an empty move that still flushes
// the store — the router's destination check; and a device that
// rehydrated on another monitor is not spilled again by a late retry on
// the source.
func TestHandoffLifecycleErrors(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, devices := deviceStream(testDS, 2, 200)
	bare, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	for _, tx := range txs {
		if err := bare.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bare.Park(devices); err == nil || !strings.Contains(err.Error(), "state tier") {
		t.Fatalf("Park without a store = %v, want an error naming the state tier", err)
	}
	if bare.Devices() != 2 {
		t.Fatalf("a refused park dropped devices: %d tracked", bare.Devices())
	}

	tier := &flushCountingStore{StateStore: NewMemStateStore()}
	src, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Shards: 2, Spill: tier})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Shards: 2, Spill: tier})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if n, err := dst.Park(nil); err != nil || n != 0 || tier.flushes != 1 {
		t.Fatalf("empty Park = %d, %v with %d flushes; want 0, nil, 1", n, err, tier.flushes)
	}
	for _, tx := range txs {
		if err := src.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.Park(devices[:1]); err != nil {
		t.Fatal(err)
	}
	next := txs[len(txs)-1]
	next.SourceIP = devices[0]
	next.Timestamp = next.Timestamp.Add(time.Second)
	if err := dst.Feed(next); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Park(devices[:1]); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tier.Get(devices[0]); ok {
		t.Fatal("a retried park wrote the device back after it rehydrated elsewhere")
	}
	if dst.Devices() != 1 || src.Devices() != 1 {
		t.Fatalf("source %d, destination %d devices; want 1, 1", src.Devices(), dst.Devices())
	}
}

// TestTrackedDevices checks the enumeration a stateless placement mover
// relies on: live devices are listed, devices in the store are not —
// idle-evicted or parked, they belong to whichever monitor their next
// transaction reaches.
func TestTrackedDevices(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, _ := deviceStream(testDS, 1, 40)
	store := NewMemStateStore()
	const ttl = 10 * time.Minute
	m, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Shards: 2, IdleTTL: ttl, Spill: store})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	a := txs[0]
	a.SourceIP = "10.0.0.1"
	if err := m.Feed(a); err != nil {
		t.Fatal(err)
	}
	b := txs[0]
	b.SourceIP = "10.0.0.2"
	c := b
	c.SourceIP = "10.0.0.3"
	for i := 0; i < 5; i++ {
		b.Timestamp = a.Timestamp.Add(time.Duration(i+2) * ttl)
		c.Timestamp = b.Timestamp
		if err := m.FeedBatch([]weblog.Transaction{b, c}); err != nil {
			t.Fatal(err)
		}
	}
	if store.Len() != 1 {
		t.Fatalf("spilled devices = %d, want 1 (test setup)", store.Len())
	}
	if names := m.TrackedDevices(); len(names) != 2 || names[0] != "10.0.0.2" || names[1] != "10.0.0.3" {
		t.Fatalf("TrackedDevices = %v, want the two live devices", names)
	}
	if _, err := m.Park([]string{"10.0.0.2"}); err != nil {
		t.Fatal(err)
	}
	if names := m.TrackedDevices(); len(names) != 1 || names[0] != "10.0.0.3" {
		t.Fatalf("TrackedDevices after a park = %v, want only the live device", names)
	}
}

// TestMonitorRehydrateBeforeFlush: a device parked and not fed since is
// in no monitor's shards, so an end-of-stream Flush would skip its
// pending windows. Rehydrate brings it back from the store first, and
// the flushed alerts then match a monitor that never parked it.
// Devices the store does not hold, or that are live, are skipped.
func TestMonitorRehydrateBeforeFlush(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, devices := deviceStream(testDS, 3, 3000)
	const k = 2
	want := referenceAlerts(t, set, txs, k)

	tier := NewMemStateStore()
	col := newAlertCollector()
	src, err := NewMonitorWithConfig(set, k, col.callback, MonitorConfig{Shards: 4, Spill: tier})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewMonitorWithConfig(set, k, col.callback, MonitorConfig{Shards: 2, Spill: tier})
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range txs {
		if err := src.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.Park(devices[:2]); err != nil {
		t.Fatal(err)
	}
	src.Sync()
	n, err := dst.Rehydrate([]string{devices[0], devices[1], devices[2], "10.255.0.9"})
	if err != nil || n != 2 || tier.Len() != 0 {
		t.Fatalf("Rehydrate = %d, %v with %d left in the store; want 2, nil, 0", n, err, tier.Len())
	}
	if n, err := src.Rehydrate(devices); err != nil || n != 0 {
		t.Fatalf("Rehydrate of devices live or elsewhere = %d, %v; want 0", n, err)
	}
	src.Flush()
	dst.Flush()
	src.Close()
	dst.Close()
	comparePerDevice(t, want, col.got)
}
