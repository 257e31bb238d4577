package core

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"webtxprofile/internal/weblog"
)

// pointsInto returns a predicate reporting whether a string's bytes lie
// inside buf's. The caller keeps buf alive (runtime.KeepAlive) until its
// last check, so no later allocation can reuse the range.
func pointsInto(buf string) func(string) bool {
	lo := uintptr(unsafe.Pointer(unsafe.StringData(buf)))
	hi := lo + uintptr(len(buf))
	return func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return len(s) > 0 && p >= lo && p < hi
	}
}

// checkAlertsOwn fails t for every alert string — device, user,
// previous user, window user — that pinned reports.
func checkAlertsOwn(t *testing.T, stage string, alerts []Alert, pinned func(string) bool) {
	t.Helper()
	for _, a := range alerts {
		strs := []string{a.Device, a.User, a.Previous}
		for u := range a.Event.Window.UserCounts {
			strs = append(strs, u)
		}
		for _, s := range strs {
			if pinned(s) {
				t.Errorf("%s: %v alert for %s holds %q, which points into ingest memory", stage, a.Kind, a.Device, s)
			}
		}
	}
}

// TestMonitorAlertsRetainNoIngestMemory feeds a monitor transactions
// parsed in place from one batch of log lines, as the collector does, and
// checks that no alert string points into the batch. Then it moves every
// device into a second monitor from state decoded out of one buffer, as a
// handoff or rehydration does, and checks the rehydrated devices' alerts
// against both the batch and that buffer. A consumer that keeps alerts
// must keep nothing else alive.
func TestMonitorAlertsRetainNoIngestMemory(t *testing.T) {
	set, ds := sharedSet(t)
	src, devices := deviceStream(ds, 8, 4096)
	lines := make([]string, len(src))
	for i := range src {
		lines[i] = src[i].MarshalLine()
	}
	batch := strings.Join(lines, "\n")
	txs := make([]weblog.Transaction, len(lines))
	for i, off := 0, 0; i < len(lines); i++ {
		tx, err := weblog.ParseLine(batch[off : off+len(lines[i])])
		if err != nil {
			t.Fatal(err)
		}
		txs[i] = tx
		off += len(lines[i]) + 1
	}
	inBatch := pointsInto(batch)

	var mu sync.Mutex
	var alerts []Alert
	record := func(a Alert) {
		mu.Lock()
		alerts = append(alerts, a)
		mu.Unlock()
	}
	store := NewMemStateStore()
	m1, err := NewMonitorWithConfig(set, 2, record, MonitorConfig{Spill: store})
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Close()
	// Feed up to a point where a device stands identified, so its
	// restored confirmed user shows up as a later alert's Previous.
	identified := func() bool {
		for _, d := range devices {
			if m1.Current(d) != "" {
				return true
			}
		}
		return false
	}
	split := 0
	for split < len(txs)/4 || !identified() {
		if split == len(txs) {
			t.Fatal("no device identified; the test needs one")
		}
		next := min(split+64, len(txs))
		if err := m1.FeedBatch(txs[split:next]); err != nil {
			t.Fatal(err)
		}
		split = next
	}
	m1.Sync()
	if len(alerts) == 0 {
		t.Fatal("no alert before the split; the test needs some")
	}
	checkAlertsOwn(t, "fresh devices", alerts, inBatch)

	// Decode every device's state out of one buffer, so the states'
	// strings alias it the way a decoded frame's or blob's do.
	if _, _, err := m1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var blobs []string
	for _, d := range devices {
		blob, ok, err := store.Get(d)
		if err != nil || !ok {
			t.Fatalf("checkpointed state of %s: ok=%v err=%v", d, ok, err)
		}
		blobs = append(blobs, string(blob))
	}
	buf := strings.Join(blobs, "")
	inBuf := pointsInto(buf)
	states := make([]DeviceState, len(blobs))
	for i, off := 0, 0; i < len(blobs); i++ {
		if states[i], err = decodeDeviceRecord(buf[off:off+len(blobs[i])], set.Vocabulary); err != nil {
			t.Fatal(err)
		}
		off += len(blobs[i])
	}

	mu.Lock()
	alerts = nil
	mu.Unlock()
	m2, err := NewMonitorWithConfig(set, 2, record, MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if err := m2.adoptStatesAtomic(states); err != nil {
		t.Fatal(err)
	}
	for i := split; i < len(txs); i += 256 {
		if err := m2.FeedBatch(txs[i:min(i+256, len(txs))]); err != nil {
			t.Fatal(err)
		}
	}
	m2.Flush()
	previous := 0
	for _, a := range alerts {
		if a.Previous != "" {
			previous++
		}
	}
	if previous == 0 {
		t.Fatal("no rehydrated device alerted with a previous user; the test needs one")
	}
	checkAlertsOwn(t, "rehydrated devices", alerts, func(s string) bool { return inBatch(s) || inBuf(s) })
	runtime.KeepAlive(batch)
	runtime.KeepAlive(buf)
}
