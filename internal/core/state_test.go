package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"webtxprofile/internal/features"
	"webtxprofile/internal/taxonomy"
	"webtxprofile/internal/weblog"
)

// eventSig reduces an identification event to a comparable signature
// covering the window identity, its content, and the decision.
func eventSig(ev Event) string {
	return fmt.Sprintf("%s|%s|%d|%s|%v|%s",
		ev.Window.Start.Format(time.RFC3339Nano), ev.Window.End.Format(time.RFC3339Nano),
		ev.Window.Count, ev.Window.Vector.Key(), ev.Accepted, ev.Identified)
}

func eventSigs(evs []Event) []string {
	out := make([]string, len(evs))
	for i := range evs {
		out[i] = eventSig(evs[i])
	}
	return out
}

// hostStream rewrites one user's chronological test transactions onto a
// single device.
func hostStream(t *testing.T, ds *weblog.Dataset, user, host string, limit int) []weblog.Transaction {
	t.Helper()
	txs := ds.UserTransactions(user)
	if len(txs) > limit {
		txs = txs[:limit]
	}
	if len(txs) == 0 {
		t.Fatalf("no transactions for user %s", user)
	}
	out := make([]weblog.Transaction, len(txs))
	for i, tx := range txs {
		tx.SourceIP = host
		out[i] = tx
	}
	return out
}

// TestIdentifierSnapshotResume is the identifier-level resume property:
// checkpointing at random midpoints of a stream — with the state pushed
// through the same binary round trip the stores use — must reproduce the
// uninterrupted event sequence byte-for-byte.
func TestIdentifierSnapshotResume(t *testing.T) {
	set, testDS := sharedSet(t)
	const host = "192.0.2.7"
	txs := hostStream(t, testDS, set.Users()[0], host, 1500)

	base, err := NewIdentifier(set, host, 3)
	if err != nil {
		t.Fatal(err)
	}
	var want []Event
	for _, tx := range txs {
		evs, err := base.Feed(tx)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, evs...)
	}
	want = append(want, base.Flush()...)
	if len(want) == 0 {
		t.Fatal("reference run produced no events")
	}
	wantSigs := eventSigs(want)

	r := rand.New(rand.NewSource(41))
	splits := []int{0, len(txs)}
	for i := 0; i < 6; i++ {
		splits = append(splits, r.Intn(len(txs)))
	}
	for _, split := range splits {
		id, err := NewIdentifier(set, host, 3)
		if err != nil {
			t.Fatal(err)
		}
		var got []Event
		for _, tx := range txs[:split] {
			evs, err := id.Feed(tx)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, evs...)
		}
		ds, err := DecodeDeviceState(EncodeDeviceState(DeviceState{Device: host, Identifier: id.Snapshot()}), set.Vocabulary)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := RestoreIdentifier(set, ds.Identifier)
		if err != nil {
			t.Fatalf("RestoreIdentifier at split %d: %v", split, err)
		}
		for _, tx := range txs[split:] {
			evs, err := resumed.Feed(tx)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, evs...)
		}
		got = append(got, resumed.Flush()...)
		gotSigs := eventSigs(got)
		if len(gotSigs) != len(wantSigs) {
			t.Fatalf("split %d: %d events, want %d", split, len(gotSigs), len(wantSigs))
		}
		for i := range wantSigs {
			if gotSigs[i] != wantSigs[i] {
				t.Fatalf("split %d: event %d differs:\n got %s\nwant %s", split, i, gotSigs[i], wantSigs[i])
			}
		}
	}
}

// TestRestoreIdentifierValidation covers the corrupt-state paths.
func TestRestoreIdentifierValidation(t *testing.T) {
	set, testDS := sharedSet(t)
	const host = "192.0.2.8"
	id, err := NewIdentifier(set, host, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range hostStream(t, testDS, set.Users()[0], host, 50) {
		if _, err := id.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	good := id.Snapshot()
	if good.K != 2 || good.Host != host {
		t.Errorf("snapshot metadata = k%d %q", good.K, good.Host)
	}

	bad := good
	bad.Host = ""
	if _, err := RestoreIdentifier(set, bad); err == nil {
		t.Error("state without host accepted")
	}
	bad = good
	bad.Host = "somewhere-else"
	if _, err := RestoreIdentifier(set, bad); err == nil {
		t.Error("host/streamer entity mismatch accepted")
	}
	bad = good
	bad.Runs = map[string]int{set.Users()[0]: -3}
	if _, err := RestoreIdentifier(set, bad); err == nil {
		t.Error("negative streak accepted")
	}
	// Streaks for unknown users are dropped, not an error: the profile set
	// may have been retrained with a different population.
	ok := good
	ok.Runs = map[string]int{"user_never_seen": 7}
	if _, err := RestoreIdentifier(set, ok); err != nil {
		t.Errorf("unknown-user streak rejected: %v", err)
	}
}

// TestStateStores exercises both StateStore implementations through the
// same contract, including device ids that need filename escaping and
// disk-store persistence across a reopen.
func TestStateStores(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDiskStateStore(filepath.Join(dir, "state"))
	if err != nil {
		t.Fatal(err)
	}
	stores := []struct {
		name string
		s    StateStore
	}{
		{"mem", NewMemStateStore()},
		{"disk", disk},
	}
	devices := []string{"10.0.0.1", "fe80::1%eth0", "weird/../device name"}
	for _, tc := range stores {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok, err := tc.s.Get("10.0.0.1"); ok || err != nil {
				t.Fatalf("empty store Get = %v, %v", ok, err)
			}
			for i, d := range devices {
				if err := tc.s.Put(d, []byte(fmt.Sprintf("blob-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			got, err := tc.s.Devices()
			if err != nil || len(got) != len(devices) {
				t.Fatalf("Devices = %v, %v", got, err)
			}
			for i, d := range devices {
				blob, ok, err := tc.s.Get(d)
				if err != nil || !ok || string(blob) != fmt.Sprintf("blob-%d", i) {
					t.Fatalf("Get(%q) = %q, %v, %v", d, blob, ok, err)
				}
				// The disk store's file holds exactly the bytes Put was
				// given, under the device's escaped name.
				if ds, ok := tc.s.(*DiskStateStore); ok {
					file, err := os.ReadFile(filepath.Join(ds.Dir(), url.PathEscape(d)+".state"))
					if err != nil || string(file) != fmt.Sprintf("blob-%d", i) {
						t.Fatalf("file of %q holds %q, %v; want the Put bytes", d, file, err)
					}
				}
			}
			if err := tc.s.Put(devices[0], []byte("replaced")); err != nil {
				t.Fatal(err)
			}
			if blob, _, _ := tc.s.Get(devices[0]); string(blob) != "replaced" {
				t.Errorf("Put did not replace: %q", blob)
			}
			if err := tc.s.Delete(devices[0]); err != nil {
				t.Fatal(err)
			}
			if err := tc.s.Delete(devices[0]); err != nil {
				t.Errorf("double delete errored: %v", err)
			}
			if _, ok, _ := tc.s.Get(devices[0]); ok {
				t.Error("deleted device still present")
			}
		})
	}

	// Reopening the disk directory must index the surviving devices.
	reopened, err := NewDiskStateStore(disk.Dir())
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopened.Devices()
	if err != nil || len(got) != len(devices)-1 {
		t.Fatalf("reopened Devices = %v, %v", got, err)
	}
	for _, d := range devices[1:] {
		if blob, ok, err := reopened.Get(d); err != nil || !ok || len(blob) == 0 {
			t.Errorf("reopened Get(%q) = %q, %v, %v", d, blob, ok, err)
		}
	}
}

// spillScenario builds the eviction-mid-streak stream: device A works long
// enough to build streaks and buffered windows, device B's traffic then
// advances stream time far enough to force A's eviction, and A resumes.
// The final phase is one late B transaction rehydrating B — it may itself
// have idled out and spilled while A was catching up — so a trailing Flush
// covers the same devices on an evicting and a never-evicting monitor.
func spillScenario(t *testing.T, set *ProfileSet, testDS *weblog.Dataset, ttl time.Duration) (a1, b, a2, bFinal []weblog.Transaction) {
	t.Helper()
	const devA, devB = "10.0.0.1", "10.0.0.2"
	all := hostStream(t, testDS, set.Users()[0], devA, 600)
	mid := len(all) / 2
	a1, a2 = all[:mid], all[mid:]
	tmpl := all[mid-1]
	tmpl.SourceIP = devB
	for i := 0; i < 5; i++ {
		tx := tmpl
		tx.Timestamp = tmpl.Timestamp.Add(time.Duration(i+2) * ttl)
		b = append(b, tx)
	}
	last := b[len(b)-1]
	if tail := a2[len(a2)-1].Timestamp; tail.After(last.Timestamp) {
		last.Timestamp = tail
	}
	last.Timestamp = last.Timestamp.Add(time.Minute)
	bFinal = []weblog.Transaction{last}
	return a1, b, a2, bFinal
}

// TestMonitorSpillRehydrateMatchesNeverEvicting is the tentpole acceptance
// criterion: a monitor that evicts a device mid-streak, spills its state
// to a StateStore (memory and disk), and rehydrates it on the device's
// next transaction must emit the identical alert sequence to a monitor
// that never evicts.
func TestMonitorSpillRehydrateMatchesNeverEvicting(t *testing.T) {
	set, testDS := sharedSet(t)
	const ttl = 10 * time.Minute
	const devA = "10.0.0.1"
	a1, b, a2, bFinal := spillScenario(t, set, testDS, ttl)
	feed := func(mon *Monitor, phases ...[]weblog.Transaction) {
		for _, phase := range phases {
			for _, tx := range phase {
				if err := mon.Feed(tx); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Reference: same stream, never evicting.
	refCol := newAlertCollector()
	ref, err := NewMonitorWithConfig(set, 2, refCol.callback, MonitorConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	feed(ref, a1, b, a2, bFinal)
	ref.Flush()
	ref.Close()

	diskStore, err := NewDiskStateStore(filepath.Join(t.TempDir(), "state"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		store StateStore
	}{
		{"mem", NewMemStateStore()},
		{"disk", diskStore},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := newAlertCollector()
			mon, err := NewMonitorWithConfig(set, 2, col.callback,
				MonitorConfig{Shards: 4, IdleTTL: ttl, Spill: tc.store})
			if err != nil {
				t.Fatal(err)
			}
			defer mon.Close()
			feed(mon, a1)
			feed(mon, b)
			// A must be evicted-with-spill now: gone from the monitor, present
			// in the store, carrying live mid-streak state.
			if mon.Current(devA) != "" {
				t.Fatal("device A still confirmed after eviction window")
			}
			spilled, err := tc.store.Devices()
			if err != nil || len(spilled) != 1 || spilled[0] != devA {
				t.Fatalf("store devices = %v, %v — eviction did not spill", spilled, err)
			}
			blob, ok, err := tc.store.Get(devA)
			if err != nil || !ok {
				t.Fatalf("spilled blob missing: %v", err)
			}
			st, err := DecodeDeviceState(blob, set.Vocabulary)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Identifier.Streamer.Records) == 0 && len(st.Identifier.Runs) == 0 {
				t.Fatal("spilled state carries neither buffered windows nor streaks — eviction not mid-streak")
			}
			feed(mon, a2)
			// Rehydration consumed A's spilled state (B may have idled out
			// and spilled in the meantime — its late transaction below
			// rehydrates it before the final flush).
			if _, ok, _ := tc.store.Get(devA); ok {
				t.Error("device A still spilled after rehydration")
			}
			feed(mon, bFinal)
			if after, _ := tc.store.Devices(); len(after) != 0 {
				t.Errorf("store still holds %v before the final flush", after)
			}
			mon.Flush()
			comparePerDevice(t, refCol.got, col.got)
		})
	}
}

// TestMonitorSpillFallbackOnStoreFailure: a store that refuses writes must
// not leak the device — the monitor falls back to the lossy flush +
// AlertLost eviction.
func TestMonitorSpillFallbackOnStoreFailure(t *testing.T) {
	set, testDS := sharedSet(t)
	const ttl = 10 * time.Minute
	a1, b, _, _ := spillScenario(t, set, testDS, ttl)
	col := newAlertCollector()
	mon, err := NewMonitorWithConfig(set, 2, col.callback,
		MonitorConfig{Shards: 4, IdleTTL: ttl, Spill: failingStore{}})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	for _, tx := range append(append([]weblog.Transaction(nil), a1...), b...) {
		if err := mon.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	if got := mon.Devices(); got != 1 {
		t.Errorf("devices = %d, want 1 (failed spill leaked the device)", got)
	}
	mon.Flush()
}

// failingStore rejects every write and holds nothing.
type failingStore struct{}

func (failingStore) Put(string, []byte) error         { return fmt.Errorf("store full") }
func (failingStore) Get(string) ([]byte, bool, error) { return nil, false, nil }
func (failingStore) Delete(string) error              { return nil }
func (failingStore) Devices() ([]string, error)       { return nil, nil }
func (failingStore) Flush() error                     { return nil }

// TestMonitorRehydrateRejectsCorruptBlob: a corrupt spilled blob fails the
// admitting transaction once, is dropped, and the device starts fresh on
// its next transaction.
func TestMonitorRehydrateRejectsCorruptBlob(t *testing.T) {
	set, testDS := sharedSet(t)
	store := NewMemStateStore()
	mon, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Spill: store})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	txs := hostStream(t, testDS, set.Users()[0], "10.0.0.9", 2)
	store.Put("10.0.0.9", []byte("not json"))
	if err := mon.Feed(txs[0]); err == nil {
		t.Fatal("corrupt blob did not fail the admitting transaction")
	}
	if store.Len() != 0 {
		t.Error("corrupt blob not dropped")
	}
	if err := mon.Feed(txs[1]); err != nil {
		t.Errorf("device did not start fresh after corrupt blob: %v", err)
	}

	// Version drift is rejected the same way: a binary blob from a future
	// format, state from earlier builds — binary version 2 and version-1
	// JSON — and JSON claiming any other version. Each device then starts
	// fresh.
	good := EncodeDeviceState(DeviceState{Device: "10.0.1.9", Identifier: IdentifierState{Host: "10.0.1.9", Streamer: features.StreamerState{Entity: "10.0.1.9"}}})
	future := append([]byte(nil), good...)
	future[0] = stateVersion + 1
	v2 := append([]byte(nil), good...)
	v2[0] = 2
	for i, blob := range [][]byte{
		future,
		v2,
		[]byte(`{"version":1,"device":"10.0.2.2","identifier":{"host":"10.0.2.2","k":2,"streamer":{"entity":"10.0.2.2"}}}`),
		[]byte(`{"version":99,"device":"10.0.2.3"}`),
	} {
		dev := fmt.Sprintf("10.0.2.%d", i)
		store.Put(dev, blob)
		tx := txs[1]
		tx.SourceIP = dev
		if err := mon.Feed(tx); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("blob %d: version-drifted blob error = %v", i, err)
		}
		if store.Len() != 0 {
			t.Errorf("blob %d: version-drifted blob not dropped", i)
		}
		if err := mon.Feed(tx); err != nil {
			t.Errorf("blob %d: device did not start fresh after a version-drifted blob: %v", i, err)
		}
	}

	// So is state whose records were extracted under another vocabulary:
	// their column ids mean nothing under this one.
	drifted, err := features.NewStreamer(features.Build(txs[:1]), set.Window, "10.0.1.9")
	if err != nil {
		t.Fatal(err)
	}
	tx := txs[0]
	tx.SourceIP = "10.0.1.9"
	if _, err := drifted.Add(tx); err != nil {
		t.Fatal(err)
	}
	store.Put("10.0.1.9", EncodeDeviceState(DeviceState{Device: "10.0.1.9",
		Identifier: IdentifierState{Host: "10.0.1.9", K: 2, Streamer: drifted.Snapshot()}}))
	tx = txs[1]
	tx.SourceIP = "10.0.1.9"
	if err := mon.Feed(tx); err == nil || !strings.Contains(err.Error(), "vocabulary") {
		t.Errorf("blob from another vocabulary: error = %v", err)
	}
	if store.Len() != 0 {
		t.Error("blob from another vocabulary not dropped")
	}
	if err := mon.Feed(tx); err != nil {
		t.Errorf("device did not start fresh after a blob from another vocabulary: %v", err)
	}
}

// flakyGetStore fails the first Get per device with a transient error.
type flakyGetStore struct {
	*MemStateStore
	failed map[string]bool
}

func (s *flakyGetStore) Get(device string) ([]byte, bool, error) {
	if !s.failed[device] {
		s.failed[device] = true
		return nil, false, fmt.Errorf("transient io error")
	}
	return s.MemStateStore.Get(device)
}

// TestMonitorRehydrateKeepsBlobOnTransientError: a store read that errors
// must fail the one transaction but leave the durable blob alone — only
// corrupt blobs are dropped — so the next transaction rehydrates normally.
func TestMonitorRehydrateKeepsBlobOnTransientError(t *testing.T) {
	set, testDS := sharedSet(t)
	const dev = "10.0.2.9"
	inner := NewMemStateStore()
	store := &flakyGetStore{MemStateStore: inner, failed: map[string]bool{}}
	mon, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Spill: store})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	// Seed the store with real spilled state for the device.
	id, err := NewIdentifier(set, dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	txs := hostStream(t, testDS, set.Users()[0], dev, 40)
	for _, tx := range txs[:20] {
		if _, err := id.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	inner.Put(dev, EncodeDeviceState(DeviceState{Device: dev, Identifier: id.Snapshot()}))

	if err := mon.Feed(txs[20]); err == nil {
		t.Fatal("transient store error did not surface")
	}
	if inner.Len() != 1 {
		t.Fatal("transient store error destroyed the spilled blob")
	}
	if err := mon.Feed(txs[20]); err != nil {
		t.Fatalf("retry did not rehydrate: %v", err)
	}
	if inner.Len() != 0 {
		t.Error("successful rehydration left the blob in the store")
	}
}

// TestMonitorCheckpointRestoreMatchesReference is the process-restart
// property, driven through FeedBatch under -race: a random stream over
// many devices, checkpointed into a disk store at a random midpoint and
// restored into a fresh monitor over the same store, must produce the
// reference alert sequence byte-identically per device.
func TestMonitorCheckpointRestoreMatchesReference(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, _ := deviceStream(testDS, 7, 6000)
	const k, batchSize = 2, 128
	want := referenceAlerts(t, set, txs, k)
	r := rand.New(rand.NewSource(43))

	for trial := 0; trial < 3; trial++ {
		store, err := NewDiskStateStore(filepath.Join(t.TempDir(), "state"))
		if err != nil {
			t.Fatal(err)
		}
		cfg := MonitorConfig{Shards: 8, BatchWorkers: 4, Spill: store}
		split := (1 + r.Intn(len(txs)/batchSize-1)) * batchSize

		col := newAlertCollector()
		mon1, err := NewMonitorWithConfig(set, k, col.callback, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for rest := txs[:split]; len(rest) > 0; {
			n := min(batchSize, len(rest))
			if err := mon1.FeedBatch(rest[:n]); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		n, _, err := mon1.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 || mon1.Devices() != 0 {
			t.Fatalf("checkpoint spilled %d devices, %d still tracked", n, mon1.Devices())
		}
		mon1.Flush() // nothing pending; waits for alert delivery
		mon1.Close()

		// "Restart": a fresh monitor over the same directory, reopened.
		reopened, err := NewDiskStateStore(store.Dir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Spill = reopened
		mon2, err := NewMonitorWithConfig(set, k, col.callback, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for rest := txs[split:]; len(rest) > 0; {
			n := min(batchSize, len(rest))
			if err := mon2.FeedBatch(rest[:n]); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		mon2.Flush()
		mon2.Close()
		comparePerDevice(t, want, col.got)
	}
}

// TestMonitorExportImportShards is the whole-population move: parking
// every device, one source shard per park, and resuming them all on a
// fresh Monitor over the same store (different seed, different shard
// count) must preserve every device's pending windows and streaks —
// proven by the combined alert sequences matching the uninterrupted
// reference.
func TestMonitorExportImportShards(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, devices := deviceStream(testDS, 9, 6000)
	const k, batchSize = 2, 128
	want := referenceAlerts(t, set, txs, k)
	split := len(txs) / 2

	tier := NewMemStateStore()
	col := newAlertCollector()
	mon1, err := NewMonitorWithConfig(set, k, col.callback, MonitorConfig{Shards: 8, BatchWorkers: 4, Spill: tier})
	if err != nil {
		t.Fatal(err)
	}
	for rest := txs[:split]; len(rest) > 0; {
		n := min(batchSize, len(rest))
		if err := mon1.FeedBatch(rest[:n]); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	moved := mon1.Devices()
	if moved == 0 {
		t.Fatal("no devices to hand off")
	}

	// The receiving monitor has a different shard layout on purpose.
	mon2, err := NewMonitorWithConfig(set, k, col.callback, MonitorConfig{Shards: 5, BatchWorkers: 4, Spill: tier})
	if err != nil {
		t.Fatal(err)
	}
	byShard := make([][]string, 8)
	for _, d := range devices {
		byShard[mon1.shardIndex(d)] = append(byShard[mon1.shardIndex(d)], d)
	}
	parked := 0
	for _, shard := range byShard {
		parked += parkMove(t, mon1, shard)
	}
	if parked != moved || tier.Len() != moved {
		t.Fatalf("parked %d devices, store holds %d, source had %d", parked, tier.Len(), moved)
	}
	if mon1.Devices() != 0 {
		t.Errorf("source monitor still tracks %d devices", mon1.Devices())
	}
	mon1.Flush()
	mon1.Close()

	for rest := txs[split:]; len(rest) > 0; {
		n := min(batchSize, len(rest))
		if err := mon2.FeedBatch(rest[:n]); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	if mon2.Devices() != moved || tier.Len() != 0 {
		t.Errorf("destination tracks %d devices with %d left in the store, want %d and 0", mon2.Devices(), tier.Len(), moved)
	}
	mon2.Flush()
	mon2.Close()
	comparePerDevice(t, want, col.got)
}

// TestMonitorExportImportErrors covers what a move finds in the store:
// a parked state that is garbage or from a future format fails the
// admitting transaction once and is dropped, and a device that
// rehydrated on one monitor is gone from the store, so a second
// monitor starts it fresh instead of forking it.
func TestMonitorExportImportErrors(t *testing.T) {
	set, testDS := sharedSet(t)
	tier := NewMemStateStore()
	mon, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Shards: 2, Spill: tier})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	txs := hostStream(t, testDS, set.Users()[0], "10.0.0.5", 20)
	for _, tx := range txs[:10] {
		if err := mon.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mon.Park([]string{"10.0.0.5"}); err != nil {
		t.Fatal(err)
	}
	good, _, _ := tier.Get("10.0.0.5")
	future := append([]byte(nil), good...)
	future[0] = stateVersion + 1
	for name, blob := range map[string][]byte{"garbage": []byte("junk"), "future version": future} {
		tier.Put("10.0.0.5", blob)
		if err := mon.Feed(txs[10]); err == nil {
			t.Errorf("%s parked state rehydrated", name)
		}
		if _, ok, _ := tier.Get("10.0.0.5"); ok {
			t.Errorf("%s parked state left in the store", name)
		}
	}

	tier.Put("10.0.0.5", good)
	other, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Shards: 2, Spill: tier})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.Feed(txs[10]); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tier.Get("10.0.0.5"); ok {
		t.Fatal("rehydration left the parked state in the store")
	}
	if err := mon.Feed(txs[11]); err != nil {
		t.Fatal(err)
	}
	if mon.Devices() != 1 || other.Devices() != 1 {
		t.Errorf("monitors track %d and %d devices, want 1 each", mon.Devices(), other.Devices())
	}
}

// TestDiskStateStoreRejectsBadDir covers the open error path.
func TestDiskStateStoreRejectsBadDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDiskStateStore(file); err == nil {
		t.Error("file path accepted as state dir")
	}
}

// TestDiskStateStoreCrashDurability models the crash the fsync fixes
// guard against: a process dies mid-Put leaving a torn ".state-*" temp
// file next to an intact committed state. Reopening the directory must
// sweep the orphans and keep the committed state — and a device whose
// escaped name itself starts with ".state-" must never be mistaken for
// one.
func TestDiskStateStoreCrashDurability(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	store, err := NewDiskStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("10.0.0.1", []byte("committed-state")); err != nil {
		t.Fatal(err)
	}
	// PathEscape keeps dots and dashes, so this device's file is
	// ".state-evil.state" — prefix of a temp file, suffix of a real one.
	if err := store.Put(".state-evil", []byte("prefixed-device")); err != nil {
		t.Fatal(err)
	}

	// A crash mid-Put leaves the temp file; a crash at open leaves an
	// empty one.
	torn := filepath.Join(dir, ".state-123456789")
	if err := os.WriteFile(torn, []byte("torn gzip garbag"), 0o600); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, ".state-987654321")
	if err := os.WriteFile(empty, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	// Earlier builds' gzipped state is in a format no monitor reads.
	var earlier []string
	for _, dev := range []string{"10.0.0.7", "10.0.0.8", "10.0.0.9"} {
		f := filepath.Join(dir, dev+".state.gz")
		if err := os.WriteFile(f, []byte{0x1f, 0x8b, 0x08, 0x00}, 0o600); err != nil {
			t.Fatal(err)
		}
		earlier = append(earlier, f)
	}
	// Unrelated files are not ours to delete.
	keep := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(keep, []byte("operator notes"), 0o600); err != nil {
		t.Fatal(err)
	}

	reopened, err := NewDiskStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, orphan := range append([]string{torn, empty}, earlier...) {
		if _, err := os.Stat(orphan); !os.IsNotExist(err) {
			t.Errorf("orphaned file %s survived reopen (err=%v)", filepath.Base(orphan), err)
		}
	}
	if got := reopened.DroppedLegacy(); got != len(earlier) {
		t.Errorf("DroppedLegacy = %d, want the %d .state.gz files (temp files are not device state)", got, len(earlier))
	}
	if _, err := os.Stat(keep); err != nil {
		t.Errorf("unrelated file swept: %v", err)
	}
	devices, err := reopened.Devices()
	if err != nil || len(devices) != 2 {
		t.Fatalf("reopened Devices = %v, %v — want both committed devices", devices, err)
	}
	if blob, ok, err := reopened.Get("10.0.0.1"); err != nil || !ok || string(blob) != "committed-state" {
		t.Errorf("committed state after crash: %q, %v, %v", blob, ok, err)
	}
	if blob, ok, err := reopened.Get(".state-evil"); err != nil || !ok || string(blob) != "prefixed-device" {
		t.Errorf("dot-prefixed device swept as an orphan: %q, %v, %v", blob, ok, err)
	}
}

// errDeniedDevice marks selectiveStore's rejected writes so the test can
// prove Checkpoint's joined error preserves the underlying causes.
var errDeniedDevice = errors.New("denied device")

// selectiveStore delegates to a memory store but refuses Puts for the
// deny-listed devices.
type selectiveStore struct {
	mem  StateStore
	deny map[string]bool
}

func (s selectiveStore) Put(d string, b []byte) error {
	if s.deny[d] {
		return fmt.Errorf("%w: %s", errDeniedDevice, d)
	}
	return s.mem.Put(d, b)
}
func (s selectiveStore) Get(d string) ([]byte, bool, error) { return s.mem.Get(d) }
func (s selectiveStore) Delete(d string) error              { return s.mem.Delete(d) }
func (s selectiveStore) Devices() ([]string, error)         { return s.mem.Devices() }
func (s selectiveStore) Flush() error                       { return s.mem.Flush() }

// TestMonitorCheckpointContinuesPastFailures: one device's failed spill
// must not abandon the rest of the checkpoint. The healthy devices spill
// and close, the failed ones stay tracked, and the counts plus a joined
// error report exactly what happened.
func TestMonitorCheckpointContinuesPastFailures(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, devices := deviceStream(testDS, 6, 3000)
	store := selectiveStore{
		mem:  NewMemStateStore(),
		deny: map[string]bool{devices[0]: true, devices[3]: true},
	}
	mon, err := NewMonitorWithConfig(set, 2, func(Alert) {},
		MonitorConfig{Shards: 4, Spill: store})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	for _, tx := range txs {
		if err := mon.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	tracked := mon.Devices()
	if tracked != 6 {
		t.Fatalf("tracked %d devices before checkpoint, want 6", tracked)
	}

	spilled, failed, err := mon.Checkpoint()
	if err == nil {
		t.Fatal("checkpoint with denied devices reported success")
	}
	if !errors.Is(err, errDeniedDevice) {
		t.Errorf("checkpoint error does not wrap the cause: %v", err)
	}
	if failed != 2 || spilled != tracked-2 {
		t.Errorf("checkpoint counts: spilled %d failed %d, want %d and 2", spilled, failed, tracked-2)
	}
	if got := mon.Devices(); got != 2 {
		t.Errorf("%d devices tracked after checkpoint, want the 2 failed ones", got)
	}
	inStore, err2 := store.Devices()
	if err2 != nil || len(inStore) != spilled {
		t.Errorf("store holds %d devices (%v), want %d", len(inStore), err2, spilled)
	}
	for _, d := range inStore {
		if store.deny[d] {
			t.Errorf("denied device %s reached the store", d)
		}
	}
}

// codecTx is a fully populated transaction for codec tests; i varies its
// timestamp and strings.
func codecTx(i int) weblog.Transaction {
	return weblog.Transaction{
		Timestamp: time.Date(2015, 5, 29, 5, 5, i, 123456789, time.UTC),
		Host:      fmt.Sprintf("www.example%d.com", i), Scheme: "https", Action: "POST",
		UserID: fmt.Sprintf("user_%d", 4+i%2), SourceIP: "10.0.0.4", Category: "News",
		MediaType: taxonomy.MediaType{Super: "text", Sub: "html"}, AppType: "browser",
		Reputation: 3, Private: i%2 == 0,
	}
}

// codecSnapshot snapshots a streamer of device that was fed txs, all
// within one hour-long window, so every record is still buffered.
func codecSnapshot(t *testing.T, vocab *features.Vocabulary, device string, txs ...weblog.Transaction) features.StreamerState {
	t.Helper()
	s, err := features.NewStreamer(vocab, features.WindowConfig{Duration: time.Hour, Shift: time.Hour}, device)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range txs {
		if _, err := s.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	ss := s.Snapshot()
	if len(ss.Records) != len(txs) {
		t.Fatalf("streamer buffers %d of %d transactions", len(ss.Records), len(txs))
	}
	return ss
}

// TestDeviceStateCodecRoundTrip: the binary codec reproduces every shape
// of device state exactly, including a real mid-stream snapshot.
func TestDeviceStateCodecRoundTrip(t *testing.T) {
	set, testDS := sharedSet(t)
	const host = "10.0.0.4"
	id, err := NewIdentifier(set, host, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range hostStream(t, testDS, set.Users()[0], host, 300) {
		if _, err := id.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	anchor, last := codecTx(0), codecTx(9)
	seen := time.Date(2015, 5, 29, 6, 0, 0, 7, time.UTC)
	// streamer builds a state at window 4 after 3 emits; an anchored one
	// spans anchor to last and buffers the records of buffered.
	streamer := func(anchored, closed bool, buffered ...weblog.Transaction) features.StreamerState {
		ss := features.StreamerState{Entity: host, Anchored: anchored, Closed: closed, NextIdx: 4, EmitCount: 3}
		if anchored {
			snap := codecSnapshot(t, set.Vocabulary, host, append(append([]weblog.Transaction{anchor}, buffered...), last)...)
			ss.Anchor, ss.LastSeen, ss.Vocabulary = snap.Anchor, snap.LastSeen, snap.Vocabulary
			if len(buffered) > 0 {
				ss.Users, ss.Records = snap.Users, snap.Records[1:1+len(buffered)]
			}
		}
		return ss
	}
	cases := []struct {
		name string
		st   DeviceState
	}{
		{"unanchored", DeviceState{Device: host, LastSeen: seen,
			Identifier: IdentifierState{Host: host, K: 3, Streamer: streamer(false, false)}}},
		{"anchored with buffer", DeviceState{Device: host, Current: "user_4", LastSeen: seen,
			Identifier: IdentifierState{Host: host, K: 3, Streamer: streamer(true, false, codecTx(3), codecTx(5), codecTx(5), codecTx(8)),
				Runs: map[string]int{"user_4": 2}}}},
		{"closed", DeviceState{Device: host, LastSeen: seen,
			Identifier: IdentifierState{Host: host, K: 1, Streamer: streamer(true, true)}}},
		{"zero last-seen", DeviceState{Device: host,
			Identifier: IdentifierState{Host: host, K: 3, Streamer: streamer(true, false, codecTx(4))}}},
		{"several runs", DeviceState{Device: host, Current: "user_1", LastSeen: seen,
			Identifier: IdentifierState{Host: host, K: 5, Streamer: streamer(false, false),
				Runs: map[string]int{"user_1": 4, "user_0": 1, "user_12": 3, "": 7}}}},
		{"mid-stream snapshot", DeviceState{Device: host, Current: "user_0", LastSeen: seen, Identifier: id.Snapshot()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.st
			blob := EncodeDeviceState(want)
			got, err := DecodeDeviceState(blob, set.Vocabulary)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round trip changed the state:\n got %+v\nwant %+v", got, want)
			}
			if again := EncodeDeviceState(got); !bytes.Equal(again, blob) {
				t.Error("re-encoding the decoded state changed the bytes")
			}
		})
	}

	// A record the encoder could not have written is refused: a group
	// mask bit past the last Table I group, a column past int32.
	oneRecord := func(record ...byte) []byte {
		b := append([]byte{stateVersion}, 1, 'x', 0, stateFlagAnchored, 1, 'x', 2, 1, 'x', 0, 0)
		b = binary.AppendVarint(binary.AppendVarint(b, seen.UnixNano()), seen.UnixNano())
		fp := set.Vocabulary.Fingerprint()
		b = binary.LittleEndian.AppendUint64(binary.AppendUvarint(b, uint64(fp.Size)), fp.Hash)
		b = append(b, 1, 1, 'u', 1) // one user, one record
		return append(append(b, record...), 0)
	}
	if _, err := DecodeDeviceState(oneRecord(0, 0, 1, 0), set.Vocabulary); err != nil {
		t.Fatalf("hand-built record with an action column: %v", err)
	}
	for name, record := range map[string][]byte{
		"mask bit past the groups": binary.AppendUvarint([]byte{0, 0}, 1<<len(features.Record{}.Cols)),
		"column past int32":        binary.AppendUvarint([]byte{0, 0, 1}, 1<<31),
	} {
		if _, err := DecodeDeviceState(oneRecord(record...), set.Vocabulary); err == nil {
			t.Errorf("record with a %s decoded", name)
		}
	}

	// Records mean nothing under another vocabulary: an anchored state is
	// refused there.
	blob := EncodeDeviceState(cases[1].st)
	other := features.Build([]weblog.Transaction{codecTx(0)})
	if _, err := DecodeDeviceState(blob, other); err == nil || !strings.Contains(err.Error(), "vocabulary") {
		t.Errorf("decoding under another vocabulary: %v", err)
	}

	// The decoder accepts only the canonical bytes: the same state with
	// its device-length varint padded by a continuation byte is refused.
	padded := append([]byte{blob[0], blob[1] | 0x80, 0x00}, blob[2:]...)
	if _, err := DecodeDeviceState(padded, set.Vocabulary); err == nil {
		t.Error("blob with a padded varint decoded")
	}
}

// TestDecodeDeviceStateAllocs: decoding costs a fixed number of
// allocations whatever the number of buffered records — the strings of
// the state alias one copy of the blob.
func TestDecodeDeviceStateAllocs(t *testing.T) {
	vocab := features.Build([]weblog.Transaction{codecTx(0), codecTx(1)})
	allocs := func(buffered int) float64 {
		txs := make([]weblog.Transaction, buffered)
		for i := range txs {
			txs[i] = codecTx(i * 60 / buffered)
		}
		ss := codecSnapshot(t, vocab, "10.0.0.4", txs...)
		st := DeviceState{Device: "10.0.0.4", Current: "user_4", LastSeen: ss.LastSeen,
			Identifier: IdentifierState{Host: "10.0.0.4", K: 3, Runs: map[string]int{"user_4": 2, "user_1": 1}, Streamer: ss}}
		blob := EncodeDeviceState(st)
		return testing.AllocsPerRun(50, func() {
			if _, err := DecodeDeviceState(blob, vocab); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1), allocs(500)
	if large > small {
		t.Errorf("decode allocations grow with the buffer: %.0f for 1 buffered record, %.0f for 500", small, large)
	}
}
