package experiments

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"webtxprofile/internal/core"
	"webtxprofile/internal/eval"
	"webtxprofile/internal/features"
	"webtxprofile/internal/svm"
	"webtxprofile/internal/weblog"
)

// identification is the first identification on one device: the user
// named and the start of the window where the consecutive-k rule fired.
type identification struct {
	User  string
	Start time.Time
}

// TestOfflineIdentificationMatchesLive links the offline reproduction to
// the daemon. On the seeded Figure 3 scenario (k = 5) and on every Table 4
// test host (k = 1, 5 and 10), the offline path — Compose, eval.Timeline,
// eval.IdentifyConsecutive — names the same first user at the same window
// start as a live core.Identifier per device and as a core.Monitor with 1
// and with 4 shards fed the whole stream (no eviction). The cluster
// equivalence suites hold the cluster to the single Monitor.
func TestOfflineIdentificationMatchesLive(t *testing.T) {
	models, err := sharedEnv.Models(svm.OCSVM)
	if err != nil {
		t.Fatal(err)
	}
	set := &core.ProfileSet{
		Vocabulary: sharedEnv.Vocab,
		Window:     RetainedWindow(),
		Algorithm:  svm.OCSVM,
		Profiles:   make(map[string]*core.Profile, len(models)),
	}
	for u, m := range models {
		set.Profiles[u] = &core.Profile{UserID: u, Model: m}
	}
	_, scenario, err := figure3Scenario(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name string
		ks   []int
		txs  []weblog.Transaction
	}{
		{"figure 3", []int{5}, scenario},
		{"table 4 test hosts", []int{1, 5, 10}, sharedEnv.Test.Transactions},
	} {
		stream := slices.Clone(in.txs)
		slices.SortStableFunc(stream, func(a, b weblog.Transaction) int { return a.Timestamp.Compare(b.Timestamp) })
		byHost := make(map[string][]weblog.Transaction)
		for _, tx := range stream {
			byHost[tx.SourceIP] = append(byHost[tx.SourceIP], tx)
		}
		for _, k := range in.ks {
			want := make(map[string]identification)
			for host, txs := range byHost {
				ws, err := features.Compose(set.Vocabulary, set.Window, txs, host)
				if err != nil {
					t.Fatal(err)
				}
				tl := eval.Timeline(models, ws)
				if u, i, ok := eval.IdentifyConsecutive(tl, k); ok {
					want[host] = identification{u, tl[i].Start}
				}
			}
			if len(want) == 0 {
				t.Fatalf("%s, k=%d: the offline path identified no device", in.name, k)
			}
			t.Logf("%s, k=%d: %d of %d devices identified offline", in.name, k, len(want), len(byHost))
			compareIdentifications(t, in.name, k, "core.Identifier", want, identifierFirsts(t, set, byHost, k))
			for _, shards := range []int{1, 4} {
				setup := fmt.Sprintf("core.Monitor, %d shard(s)", shards)
				compareIdentifications(t, in.name, k, setup, want, monitorFirsts(t, set, stream, k, shards))
			}
		}
	}
}

// identifierFirsts feeds each device's transactions to its own
// core.Identifier and returns the first identification per device.
func identifierFirsts(t *testing.T, set *core.ProfileSet, byHost map[string][]weblog.Transaction, k int) map[string]identification {
	t.Helper()
	got := make(map[string]identification)
	for host, txs := range byHost {
		id, err := core.NewIdentifier(set, host, k)
		if err != nil {
			t.Fatal(err)
		}
		var evs []core.Event
		for _, tx := range txs {
			e, err := id.Feed(tx)
			if err != nil {
				t.Fatal(err)
			}
			evs = append(evs, e...)
		}
		for _, ev := range append(evs, id.Flush()...) {
			if ev.Identified != "" {
				got[host] = identification{ev.Identified, ev.Window.Start}
				break
			}
		}
	}
	return got
}

// monitorFirsts feeds the whole stream, in batches, to one core.Monitor
// and returns the first AlertIdentified per device.
func monitorFirsts(t *testing.T, set *core.ProfileSet, stream []weblog.Transaction, k, shards int) map[string]identification {
	t.Helper()
	var mu sync.Mutex
	got := make(map[string]identification)
	m, err := core.NewMonitorWithConfig(set, k, func(a core.Alert) {
		mu.Lock()
		defer mu.Unlock()
		if _, seen := got[a.Device]; !seen && a.Kind == core.AlertIdentified {
			got[a.Device] = identification{a.User, a.Event.Window.Start}
		}
	}, core.MonitorConfig{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const batch = 256
	for i := 0; i < len(stream); i += batch {
		if err := m.FeedBatch(stream[i:min(i+batch, len(stream))]); err != nil {
			t.Fatal(err)
		}
	}
	m.Flush()
	mu.Lock()
	defer mu.Unlock()
	return got
}

// compareIdentifications reports every device whose first identification
// under a live setup differs from the offline one.
func compareIdentifications(t *testing.T, input string, k int, setup string, want, got map[string]identification) {
	t.Helper()
	for host, w := range want {
		if g, ok := got[host]; !ok || g.User != w.User || !g.Start.Equal(w.Start) {
			t.Errorf("%s, k=%d, device %s: %s identified %q at %v (ok=%v); offline %q at %v",
				input, k, host, setup, g.User, g.Start, ok, w.User, w.Start)
		}
	}
	for host, g := range got {
		if _, ok := want[host]; !ok {
			t.Errorf("%s, k=%d, device %s: %s identified %q at %v; offline identified no one",
				input, k, host, setup, g.User, g.Start)
		}
	}
}
