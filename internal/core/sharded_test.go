package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"webtxprofile/internal/features"
	"webtxprofile/internal/weblog"
)

// sharedSet trains one profile set per test binary for the sharded-monitor
// tests (training is the expensive part; the monitor under test is cheap).
var (
	sharedSetOnce sync.Once
	sharedSetVal  *ProfileSet
	sharedTestDS  *weblog.Dataset
	sharedSetErr  error
)

func sharedSet(t *testing.T) (*ProfileSet, *weblog.Dataset) {
	t.Helper()
	sharedSetOnce.Do(func() {
		sharedSetVal, sharedTestDS, sharedSetErr = Train(smallDataset, testConfig())
	})
	if sharedSetErr != nil {
		t.Fatal(sharedSetErr)
	}
	return sharedSetVal, sharedTestDS
}

// deviceStream fans the chronological test transactions out over n synthetic
// devices round-robin: each device's subsequence stays time-ordered, and
// every device sees a mix of users.
func deviceStream(ds *weblog.Dataset, n, limit int) ([]weblog.Transaction, []string) {
	txs := append([]weblog.Transaction(nil), ds.Transactions...)
	sort.SliceStable(txs, func(i, j int) bool { return txs[i].Timestamp.Before(txs[j].Timestamp) })
	if len(txs) > limit {
		txs = txs[:limit]
	}
	devices := make([]string, n)
	for i := range devices {
		devices[i] = fmt.Sprintf("10.9.%d.%d", i/256, i%256)
	}
	out := make([]weblog.Transaction, len(txs))
	for i, tx := range txs {
		tx.SourceIP = devices[i%n]
		out[i] = tx
	}
	return out, devices
}

// alertSig reduces an alert to a comparable signature.
func alertSig(a Alert) string {
	return fmt.Sprintf("%s|%v|%s|%s|%s|%s",
		a.Device, a.Kind, a.User, a.Previous,
		a.Event.Window.Start.Format(time.RFC3339Nano), a.Event.Identified)
}

// referenceAlerts replays the stream through the seed design — one
// single-goroutine Identifier per device plus the transition rule — and
// returns per-device alert signatures, the ground truth the sharded
// monitor must reproduce exactly.
func referenceAlerts(t *testing.T, set *ProfileSet, txs []weblog.Transaction, k int) map[string][]string {
	t.Helper()
	type refTrack struct {
		id      *Identifier
		current string
	}
	tracks := map[string]*refTrack{}
	out := map[string][]string{}
	record := func(device string, events []Event) {
		tr := tracks[device]
		for _, ev := range events {
			switch {
			case ev.Identified != "" && ev.Identified != tr.current:
				out[device] = append(out[device], alertSig(Alert{
					Device: device, Kind: AlertIdentified,
					User: ev.Identified, Previous: tr.current, Event: ev,
				}))
				tr.current = ev.Identified
			case ev.Identified == "" && tr.current != "":
				out[device] = append(out[device], alertSig(Alert{
					Device: device, Kind: AlertLost,
					User: tr.current, Previous: tr.current, Event: ev,
				}))
				tr.current = ""
			}
		}
	}
	for _, tx := range txs {
		tr, ok := tracks[tx.SourceIP]
		if !ok {
			id, err := NewIdentifier(set, tx.SourceIP, k)
			if err != nil {
				t.Fatal(err)
			}
			tr = &refTrack{id: id}
			tracks[tx.SourceIP] = tr
		}
		events, err := tr.id.Feed(tx)
		if err != nil {
			t.Fatal(err)
		}
		record(tx.SourceIP, events)
	}
	for device, tr := range tracks {
		record(device, tr.id.Flush())
	}
	return out
}

// collectAlerts gathers per-device alert signatures from a monitor run.
type alertCollector struct {
	mu  sync.Mutex
	got map[string][]string
}

func newAlertCollector() *alertCollector { return &alertCollector{got: map[string][]string{}} }

func (c *alertCollector) callback(a Alert) {
	c.mu.Lock()
	c.got[a.Device] = append(c.got[a.Device], alertSig(a))
	c.mu.Unlock()
}

func comparePerDevice(t *testing.T, want, got map[string][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("alerting devices: got %d, want %d", len(got), len(want))
	}
	total := 0
	for device, w := range want {
		g := got[device]
		if len(g) != len(w) {
			t.Errorf("device %s: %d alerts, want %d", device, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("device %s alert %d:\n got %s\nwant %s", device, i, g[i], w[i])
				break
			}
		}
		total += len(w)
	}
	if total == 0 {
		t.Fatal("reference produced no alerts — test exercises nothing")
	}
}

// TestMonitorShardedMatchesReference is the tentpole equivalence check:
// per device and in order, the sharded monitor's alerts must be identical
// to the seed single-lock design's.
func TestMonitorShardedMatchesReference(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, _ := deviceStream(testDS, 7, 6000)
	const k = 2
	want := referenceAlerts(t, set, txs, k)

	for _, shards := range []int{1, 4, 16} {
		col := newAlertCollector()
		mon, err := NewMonitorWithConfig(set, k, col.callback, MonitorConfig{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range txs {
			if err := mon.Feed(tx); err != nil {
				t.Fatal(err)
			}
		}
		mon.Flush()
		mon.Close()
		comparePerDevice(t, want, col.got)
	}
}

// TestMonitorFeedBatchConcurrent feeds interleaved transactions for many
// devices from multiple goroutines via FeedBatch (run with -race) and
// checks the per-device alert sequences still match the single-goroutine
// reference. Each goroutine owns a disjoint device subset so per-device
// order is well defined.
func TestMonitorFeedBatchConcurrent(t *testing.T) {
	set, testDS := sharedSet(t)
	const devices, workers, batchSize = 12, 4, 64
	txs, devNames := deviceStream(testDS, devices, 6000)
	const k = 2
	want := referenceAlerts(t, set, txs, k)

	// Partition the stream by device owner: worker w feeds every
	// transaction of devices with index ≡ w (mod workers), in order, in
	// batches.
	owner := map[string]int{}
	for i, d := range devNames {
		owner[d] = i % workers
	}
	streams := make([][]weblog.Transaction, workers)
	for _, tx := range txs {
		w := owner[tx.SourceIP]
		streams[w] = append(streams[w], tx)
	}

	col := newAlertCollector()
	mon, err := NewMonitorWithConfig(set, k, col.callback, MonitorConfig{Shards: 8, AlertBuffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(stream []weblog.Transaction) {
			defer wg.Done()
			for len(stream) > 0 {
				n := min(batchSize, len(stream))
				if err := mon.FeedBatch(stream[:n]); err != nil {
					t.Errorf("FeedBatch: %v", err)
					return
				}
				stream = stream[n:]
			}
		}(streams[w])
	}
	wg.Wait()
	if got := mon.Devices(); got != devices {
		t.Errorf("devices = %d, want %d", got, devices)
	}
	mon.Flush()
	mon.Close()
	comparePerDevice(t, want, col.got)
}

// TestMonitorFeedBatchWorkersMatchSequential is the parallel-batch
// equivalence check: the per-device alert sequences produced with the
// FeedBatch worker pool (several pool sizes, run under -race) must be
// byte-identical to the BatchWorkers=1 sequential scorer's, which in turn
// must match the single-goroutine reference.
func TestMonitorFeedBatchWorkersMatchSequential(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, _ := deviceStream(testDS, 9, 6000)
	const k, batchSize = 2, 128
	want := referenceAlerts(t, set, txs, k)

	run := func(workers int) map[string][]string {
		col := newAlertCollector()
		mon, err := NewMonitorWithConfig(set, k, col.callback,
			MonitorConfig{Shards: 8, BatchWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for rest := txs; len(rest) > 0; {
			n := min(batchSize, len(rest))
			if err := mon.FeedBatch(rest[:n]); err != nil {
				t.Fatalf("FeedBatch(workers=%d): %v", workers, err)
			}
			rest = rest[n:]
		}
		mon.Flush()
		mon.Close()
		return col.got
	}

	sequential := run(1)
	comparePerDevice(t, want, sequential)
	for _, workers := range []int{2, 4, 8} {
		comparePerDevice(t, sequential, run(workers))
	}
}

// TestMonitorFeedBatchErrors checks that a bad transaction inside a batch
// surfaces as an error without poisoning the rest of the batch.
func TestMonitorFeedBatchErrors(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, _ := deviceStream(testDS, 3, 50)
	mon, err := NewMonitor(set, 2, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if err := mon.FeedBatch(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	bad := txs[10]
	bad.Timestamp = bad.Timestamp.Add(-24 * time.Hour) // out of order for its device
	batch := append(append([]weblog.Transaction(nil), txs...), bad)
	if err := mon.FeedBatch(batch); err == nil {
		t.Error("out-of-order transaction in batch not reported")
	}
	if got := mon.Devices(); got != 3 {
		t.Errorf("devices = %d, want 3 (batch processing aborted?)", got)
	}
}

// TestMonitorFeedBatchFarFutureTimestamp feeds a parseable year-9999 log
// line — a corrupt timestamp too far past its device's window anchor to
// index — inside a FeedBatch. Only that one transaction fails (with
// features.ErrWindowRange); its device's window state is untouched, and
// every device's alert sequence, the corrupt line's device included,
// matches a run without the line. Later batches still feed, so the shard
// is not stalled behind it.
func TestMonitorFeedBatchFarFutureTimestamp(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, _ := deviceStream(testDS, 5, 3000)
	const k, batchSize, badAt = 2, 128, 200
	want := referenceAlerts(t, set, txs, k)
	bad, err := weblog.ParseLine(func() weblog.Transaction {
		tx := txs[badAt]
		tx.Timestamp = time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC)
		return tx
	}().MarshalLine())
	if err != nil {
		t.Fatalf("year-9999 line does not parse: %v", err)
	}

	col := newAlertCollector()
	mon, err := NewMonitorWithConfig(set, k, col.callback, MonitorConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(txs); lo += batchSize {
		batch := txs[lo:min(lo+batchSize, len(txs))]
		if lo <= badAt && badAt < lo+batchSize {
			batch = append(append(append([]weblog.Transaction(nil), batch[:badAt-lo]...), bad), batch[badAt-lo:]...)
			err := mon.FeedBatch(batch)
			if !errors.Is(err, features.ErrWindowRange) {
				t.Fatalf("FeedBatch with a year-9999 line = %v, want ErrWindowRange", err)
			}
			if n := len(err.(interface{ Unwrap() []error }).Unwrap()); n != 1 {
				t.Fatalf("FeedBatch failed %d transactions, want only the corrupt one: %v", n, err)
			}
			continue
		}
		if err := mon.FeedBatch(batch); err != nil {
			t.Fatalf("FeedBatch at %d: %v", lo, err)
		}
	}
	mon.Flush()
	mon.Close()
	comparePerDevice(t, want, col.got)
}

// TestMonitorIdleEviction checks IdleTTL-based eviction in stream time:
// devices that go quiet are flushed and dropped, bounding tracked-device
// memory, while active devices stay. Several shards ensure the sweep
// reaches quiet shards: the idle device keeps getting evicted no matter
// which shard it hashed to, driven purely by the other device's traffic.
func TestMonitorIdleEviction(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, _ := deviceStream(testDS, 1, 40)
	const ttl = 10 * time.Minute
	mon, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Shards: 4, IdleTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	// Device A transacts briefly, then only device B keeps going.
	a := txs[0]
	a.SourceIP = "10.0.0.1"
	if err := mon.Feed(a); err != nil {
		t.Fatal(err)
	}
	if mon.Devices() != 1 {
		t.Fatalf("devices = %d after first feed", mon.Devices())
	}
	// A corrupt far-future timestamp must not fast-forward the stream
	// clock and mass-evict: the clock advances by at most TTL per
	// transaction.
	corrupt := txs[0]
	corrupt.SourceIP = "10.0.0.3"
	corrupt.Timestamp = a.Timestamp.Add(100 * 365 * 24 * time.Hour)
	if err := mon.Feed(corrupt); err != nil {
		t.Fatal(err)
	}
	if got := mon.Devices(); got != 2 {
		t.Errorf("devices = %d after corrupt timestamp, want 2 (mass eviction?)", got)
	}
	b := txs[0]
	b.SourceIP = "10.0.0.2"
	// Advance stream time past 2×TTL so the amortized sweep must fire.
	for i := 0; i < 5; i++ {
		b.Timestamp = a.Timestamp.Add(time.Duration(i+2) * ttl)
		if err := mon.Feed(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := mon.Devices(); got != 1 {
		t.Errorf("devices = %d, want 1 (idle devices not evicted)", got)
	}
	if mon.Current("10.0.0.1") != "" {
		t.Error("evicted device still has a confirmed user")
	}
	mon.Flush()
}

// TestMonitorEvictionEmitsLost checks the continuous-authentication
// contract: evicting a device whose identity is confirmed fires a final
// AlertLost even when no partial window is pending.
func TestMonitorEvictionEmitsLost(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, _ := deviceStream(testDS, 1, 10)
	const ttl = 10 * time.Minute
	col := newAlertCollector()
	mon, err := NewMonitorWithConfig(set, 2, col.callback, MonitorConfig{Shards: 2, IdleTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	a := txs[0]
	a.SourceIP = "10.0.0.1"
	if err := mon.Feed(a); err != nil {
		t.Fatal(err)
	}
	// White-box: confirm an identity on the tracked device, then let
	// another device's traffic age it out.
	sh := mon.shardFor("10.0.0.1")
	sh.mu.Lock()
	sh.devices["10.0.0.1"].current = set.Users()[0]
	sh.mu.Unlock()
	b := txs[0]
	b.SourceIP = "10.0.0.2"
	for i := 0; i < 4; i++ {
		b.Timestamp = a.Timestamp.Add(time.Duration(i+1) * ttl)
		if err := mon.Feed(b); err != nil {
			t.Fatal(err)
		}
	}
	if mon.Current("10.0.0.1") != "" {
		t.Fatal("device not evicted")
	}
	mon.Flush()
	col.mu.Lock()
	defer col.mu.Unlock()
	// The loss may surface through the flushed pending window or, with
	// nothing pending, through the synthetic eviction alert — either way
	// the consumer must see the session end.
	found := false
	prefix := fmt.Sprintf("10.0.0.1|%v|%s|%s|", AlertLost, set.Users()[0], set.Users()[0])
	for _, sig := range col.got["10.0.0.1"] {
		if strings.HasPrefix(sig, prefix) {
			found = true
		}
	}
	if !found {
		t.Errorf("no eviction AlertLost for 10.0.0.1; alerts: %v", col.got["10.0.0.1"])
	}
}

// TestMonitorClockPoisonRecovery: a corrupt far-future *first* timestamp
// initializes the stream clock unclamped, which would otherwise pin it
// and disable eviction forever. After clockRegressAfter consecutive
// far-behind transactions the clock must snap back, evict the
// future-stamped remnant device, and resume normal idle eviction.
func TestMonitorClockPoisonRecovery(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, _ := deviceStream(testDS, 1, 10)
	const ttl = 2 * time.Minute
	mon, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Shards: 2, IdleTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	t0 := txs[0].Timestamp
	// First-ever transaction carries a corrupt year-2100-style timestamp.
	corrupt := txs[0]
	corrupt.SourceIP = "10.0.0.66"
	corrupt.Timestamp = t0.Add(75 * 365 * 24 * time.Hour)
	if err := mon.Feed(corrupt); err != nil {
		t.Fatal(err)
	}
	// A legitimate device appears, then another keeps transacting with
	// real timestamps; every one is far behind the poisoned clock.
	a := txs[0]
	a.SourceIP = "10.0.0.1"
	a.Timestamp = t0
	if err := mon.Feed(a); err != nil {
		t.Fatal(err)
	}
	b := txs[0]
	b.SourceIP = "10.0.0.2"
	// Enough stream time after the snap-back for the remnant to be
	// touched down to the clock on one sweep and then idle out on a
	// later one.
	for i := 0; i < clockRegressAfter+500; i++ {
		b.Timestamp = t0.Add(time.Duration(i+1) * time.Second)
		if err := mon.Feed(b); err != nil {
			t.Fatal(err)
		}
	}
	// The clock has snapped back and swept: the future-stamped remnant
	// and the long-idle device are gone, the live device remains.
	if got := mon.Devices(); got != 1 {
		t.Errorf("devices = %d, want 1 (clock poison not recovered)", got)
	}
	if mon.Current("10.0.0.66") != "" || mon.Current("10.0.0.1") != "" {
		t.Error("evicted devices still present")
	}
	mon.Flush()
}

// TestMonitorPoisonedFirstBatchNoMassEviction: a corrupt far-future
// timestamp as the first-ever transaction of a FeedBatch must not evict
// the legitimately-timestamped devices arriving right behind it in the
// same batch — the sweep holds off while recent input disagrees with the
// clock.
func TestMonitorPoisonedFirstBatchNoMassEviction(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, _ := deviceStream(testDS, 1, 10)
	mon, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Shards: 4, IdleTTL: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	t0 := txs[0].Timestamp
	batch := make([]weblog.Transaction, 0, 7)
	corrupt := txs[0]
	corrupt.SourceIP = "10.0.0.66"
	corrupt.Timestamp = t0.Add(75 * 365 * 24 * time.Hour)
	batch = append(batch, corrupt)
	for i := 0; i < 6; i++ {
		tx := txs[0]
		tx.SourceIP = fmt.Sprintf("10.0.0.%d", i+1)
		tx.Timestamp = t0
		batch = append(batch, tx)
	}
	if err := mon.FeedBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := mon.Devices(); got != 7 {
		t.Errorf("devices = %d, want 7 (legit devices mass-evicted by poisoned clock)", got)
	}
	mon.Flush()
}

// TestMonitorCloseIdempotent ensures Close can be called repeatedly and
// after Flush.
func TestMonitorCloseIdempotent(t *testing.T) {
	set, _ := sharedSet(t)
	mon, err := NewMonitor(set, 2, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	mon.Flush()
	mon.Close()
	mon.Close()
}
