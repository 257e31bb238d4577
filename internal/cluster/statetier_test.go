package cluster_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webtxprofile/internal/cluster"
	"webtxprofile/internal/cluster/clustertest"
	"webtxprofile/internal/core"
	"webtxprofile/internal/statestore"
	"webtxprofile/internal/weblog"
)

// State-tier suite: the harness puts every node on one shared
// internal/statestore server, each through its own write-behind client
// (sharing one client would merge the per-owner version streams the
// fence keeps apart). The invariant stays the one every cluster suite
// asserts — per-device alert sequences byte-identical to a single
// never-resharded monitor — and these cases lean on the tier directly:
// checkpoints, warm joins, failover by lazy rehydration, and park
// failures.

// startStateServer runs an in-memory state server for one test that
// needs it outside a harness, or behind a proxy.
func startStateServer(tb testing.TB) *statestore.Server {
	tb.Helper()
	srv, err := statestore.ListenServer("127.0.0.1:0", statestore.ServerConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	return srv
}

// flushTier drains a node's write-behind queue, retrying transient flush
// failures (the chaos runs kill state-server connections mid-flush).
func flushTier(tb testing.TB, c *statestore.Client) {
	tb.Helper()
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		if err = c.Flush(); err == nil {
			return
		}
	}
	tb.Fatalf("state client never flushed clean: %v", err)
}

// syncRouter is the feed barrier with the chaos-tolerant retry loop:
// Sync is idempotent, so killed stats connections just mean another
// attempt.
func syncRouter(tb testing.TB, r *cluster.Router) {
	tb.Helper()
	for attempt := 0; ; attempt++ {
		err := r.Sync()
		if err == nil {
			return
		}
		if attempt >= 10 {
			tb.Fatalf("sync never succeeded: %v", err)
		}
	}
}

// feedChunks feeds the workload in small batches so the stream spans
// many wire frames (each one a chaos-kill candidate).
func feedChunks(tb testing.TB, r *cluster.Router, txs []weblog.Transaction, n int) {
	tb.Helper()
	for i := 0; i < len(txs); i += n {
		end := min(i+n, len(txs))
		if err := r.FeedBatch(txs[i:end]); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestWarmRestoreJoinEquivalence is the tentpole's first payoff: a node
// checkpoints its whole population into the shared tier (a SIGTERM
// restart), and a cold node then joins — every device that moves to it
// warm-restores from the tier (the drain has nothing live to park), and
// the merged alert stream still matches the never-resharded reference.
func TestWarmRestoreJoinEquivalence(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, _ := clustertest.Workload(t, ds, 12, 4000)
	want := clustertest.ReferenceSigs(t, set, equivK, txs)
	prev := cluster.ReadClusterStats()

	h := clustertest.NewHarness(t, set, equivK, "n1")
	srv := h.State

	// Phase 1: the whole population identifies on n1.
	split := len(txs) * 3 / 5
	feedChunks(t, h.Router, txs[:split], 200)
	syncRouter(t, h.Router)

	// SIGTERM-style checkpoint: every tracked device spills through n1's
	// write-behind client, which is then drained to the server.
	spilled, failed, err := h.Node("n1").Monitor().Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v (%d devices failed)", err, failed)
	}
	if spilled == 0 {
		t.Fatal("checkpoint spilled nothing — the warm join would prove nothing")
	}
	flushTier(t, h.Tier("n1"))
	if got := srv.Len(); got < spilled {
		t.Fatalf("tier holds %d devices after flush, want >= %d", got, spilled)
	}

	// A cold node joins. No mover is live anywhere, so the drain parks
	// nothing: every mover is already in the tier.
	h.Join(t, "n2")
	if d := cluster.ReadClusterStats().Sub(prev); d.WarmRestores == 0 {
		t.Fatalf("the join moved no device through the tier: %+v", d)
	}

	// Phase 2: devices rehydrate lazily (tier Get → restore → Delete) on
	// their next transaction, wherever they now live.
	feedChunks(t, h.Router, txs[split:], 200)
	if err := h.Router.Flush(); err != nil {
		t.Fatal(err)
	}
	clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
	if h.Alerts.Origins()["n2"] == 0 {
		t.Fatal("no alert originated on the joined node — placement never moved")
	}
	if srv.Stats().GetHits == 0 {
		t.Fatal("no device ever rehydrated from the tier")
	}
}

// TestLiveMoveAfterRehydrateEquivalence moves devices live — no
// checkpoint first — after each one rehydrated from the tier, which
// planted a tombstone above every version the devices' old owners had
// written. A move must not hand the new owner state at a version its
// tier client never learned: its next spill would fall at or below the
// tombstone, the server would drop it as stale, and the device would
// later restart from scratch with divergent alerts.
func TestLiveMoveAfterRehydrateEquivalence(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, devices := clustertest.Workload(t, ds, 12, 4000)
	want := clustertest.ReferenceSigs(t, set, equivK, txs)

	checkpointAll := func(t *testing.T, h *clustertest.Harness, names []string) {
		t.Helper()
		syncRouter(t, h.Router)
		for _, name := range names {
			if _, failed, err := h.Node(name).Monitor().Checkpoint(); err != nil {
				t.Fatalf("checkpoint %s: %v (%d devices failed)", name, err, failed)
			}
			flushTier(t, h.Tier(name))
		}
	}
	// The rehydrating stretch runs from a quarter of the stream until
	// every device has had a transaction.
	start := len(txs) / 4
	seen := make(map[string]bool)
	end := start
	for ; end < len(txs) && len(seen) < len(devices); end++ {
		seen[txs[end].SourceIP] = true
	}
	if len(seen) < len(devices) {
		t.Fatal("the workload leaves some device without a transaction to rehydrate on")
	}
	split := end + (len(txs)-end)/2

	for _, tc := range []struct {
		name          string
		before, after []string
		move          func(t *testing.T, h *clustertest.Harness)
	}{
		{"AddNode", []string{"n1", "n2"}, []string{"n1", "n2", "n3"}, func(t *testing.T, h *clustertest.Harness) {
			h.Join(t, "n3")
		}},
		{"RemoveNode", []string{"n1", "n2", "n3"}, []string{"n1", "n2"}, func(t *testing.T, h *clustertest.Harness) {
			if err := h.Router.RemoveNode("n3"); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := clustertest.NewHarness(t, set, equivK, tc.before...)
			srv := h.State

			feedChunks(t, h.Router, txs[:start], 200)
			checkpointAll(t, h, tc.before)
			feedChunks(t, h.Router, txs[start:end], 200)
			syncRouter(t, h.Router)
			if n := srv.Len(); n != 0 {
				t.Fatalf("%d devices still in the tier; every device should have rehydrated", n)
			}

			owners := make(map[string]string)
			for _, d := range devices {
				owners[d], _ = h.Router.Owner(d)
			}
			tc.move(t, h)
			moved := 0
			for _, d := range devices {
				if owner, _ := h.Router.Owner(d); owner != owners[d] {
					moved++
				}
			}
			if moved == 0 {
				t.Fatal("the membership change moved no device")
			}

			feedChunks(t, h.Router, txs[end:split], 200)
			checkpointAll(t, h, tc.after)
			feedChunks(t, h.Router, txs[split:], 200)
			if err := h.Router.Flush(); err != nil {
				t.Fatal(err)
			}
			clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
			if d := srv.Stats().StaleDrops; d != 0 {
				t.Errorf("the server dropped %d spills as stale after %d devices moved live", d, moved)
			}
		})
	}
}

// gatedStore wraps a node's tier client and, while refuse is set,
// refuses Puts for the devices deny names — a park that cannot spill.
type gatedStore struct {
	core.StateStore
	refuse *atomic.Bool
	deny   func(device string) bool
}

func (g gatedStore) Put(device string, blob []byte) error {
	if g.refuse.Load() && g.deny(device) {
		return fmt.Errorf("injected spill failure for %s", device)
	}
	return g.StateStore.Put(device, blob)
}

// TestStateTierParkFailureKeepsSource: when a park cannot spill some
// movers, the drain settles back on the source. The refused devices stay
// live there, the parked ones rehydrate there from the tier, a removal is
// called off — and no state is lost: the alerts still match the
// reference.
func TestStateTierParkFailureKeepsSource(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, devices := clustertest.Workload(t, ds, 12, 3000)
	want := clustertest.ReferenceSigs(t, set, equivK, txs)
	deny := make(map[string]bool)
	for i, d := range devices {
		deny[d] = i%2 == 0
	}

	for _, tc := range []struct {
		name   string
		before []string
		move   func(t *testing.T, h *clustertest.Harness) error
		keeps  string // a node the failed move must leave a member
	}{
		{"AddNode", []string{"n1", "n2"}, func(t *testing.T, h *clustertest.Harness) error {
			n3 := h.StartNode(t, "n3")
			return h.Router.AddNode(cluster.Member{Name: "n3", Addr: n3.Addr().String()})
		}, "n1"},
		{"RemoveNode", []string{"n1", "n2", "n3"}, func(t *testing.T, h *clustertest.Harness) error {
			return h.Router.RemoveNode("n3")
		}, "n3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var refuse atomic.Bool
			h := clustertest.NewHarnessConfig(t, set, equivK, clustertest.HarnessConfig{
				NodePrep: func(name string, cfg *cluster.NodeConfig) {
					cfg.Monitor.Spill = gatedStore{cfg.Monitor.Spill, &refuse, func(d string) bool { return deny[d] }}
				},
			}, tc.before...)

			half := len(txs) / 2
			feedChunks(t, h.Router, txs[:half], 200)
			syncRouter(t, h.Router)
			prev := cluster.ReadClusterStats()
			refuse.Store(true)
			if err := tc.move(t, h); err == nil {
				t.Fatal("the membership change succeeded though parks were refused")
			}
			refuse.Store(false)
			if d := cluster.ReadClusterStats().Sub(prev); d.HandoffAborts == 0 {
				t.Fatal("no drain settled back on its source")
			}
			member := false
			for _, m := range h.Router.View().Members {
				member = member || m.Name == tc.keeps
			}
			if !member {
				t.Fatalf("%s is no longer a member after the failed move", tc.keeps)
			}

			feedChunks(t, h.Router, txs[half:], 200)
			if err := h.Router.Flush(); err != nil {
				t.Fatal(err)
			}
			clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
			if h.State.Stats().GetHits == 0 {
				t.Fatal("no parked device rehydrated from the tier")
			}
		})
	}
}

// TestFailoverWithoutHandoffEquivalence: a member checkpoints, dies, and
// is declared failed — its devices reroute to the survivors and resume
// from the tier with no park at all, byte-identically.
func TestFailoverWithoutHandoffEquivalence(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, _ := clustertest.Workload(t, ds, 12, 4000)
	want := clustertest.ReferenceSigs(t, set, equivK, txs)
	prev := cluster.ReadClusterStats()

	h := clustertest.NewHarness(t, set, equivK, "n1", "n2", "n3")
	srv := h.State

	split := len(txs) * 3 / 5
	feedChunks(t, h.Router, txs[:split], 200)
	syncRouter(t, h.Router)

	// n1 dies politely: checkpoint, drain the write-behind queue, gone.
	// (The barrier above already delivered its alerts; Close emits no
	// synthetic end-of-stream alerts.)
	n1 := h.Node("n1")
	if _, failed, err := n1.Monitor().Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v (%d devices failed)", err, failed)
	}
	flushTier(t, h.Tier("n1"))
	n1.Close()

	if err := h.Router.FailNode("n1"); err != nil {
		t.Fatal(err)
	}
	if d := cluster.ReadClusterStats().Sub(prev); d.FailoverReroutes == 0 {
		t.Fatalf("FailNode rerouted nothing: %+v", d)
	}

	feedChunks(t, h.Router, txs[split:], 200)
	if err := h.Router.Flush(); err != nil {
		t.Fatal(err)
	}
	clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
	if srv.Stats().GetHits == 0 {
		t.Fatal("no failed-over device ever rehydrated from the tier")
	}
}

// TestChaosStateTierMidStreamKills: the ChaosProxy kills state-server connections AND a node's feed
// connections mid-stream, a checkpoint and a warm join land in the
// middle of it, and the alert stream still matches the reference. The
// statestore protocol is opaque to the proxy (its frames are not cluster
// frames), so that plan keys on connection/frame ordinals alone.
func TestChaosStateTierMidStreamKills(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, _ := clustertest.Workload(t, ds, 16, 3600)
	want := clustertest.ReferenceSigs(t, set, equivK, txs)
	prev := cluster.ReadClusterStats()

	rng := rand.New(rand.NewSource(clustertest.ChaosSeed(t)))
	var mu sync.Mutex
	stateKills, nodeKills := 0, 0
	// The very first state frame always dies (a guaranteed retry), the
	// rest die at random; statestore RPC traffic is sparse, so the rate
	// is high and the cap keeps the tail of the run clean.
	statePlan := func(ev clustertest.FaultEvent) clustertest.FaultAction {
		mu.Lock()
		defer mu.Unlock()
		if ev.Conn == 1 && ev.Seq == 1 && ev.Dir == clustertest.ToNode {
			stateKills++
			return clustertest.Kill
		}
		if stateKills < 10 && rng.Intn(4) == 0 {
			stateKills++
			return clustertest.Kill
		}
		return clustertest.Pass
	}
	// Only feed frames die on the node proxy: handshakes succeed, so
	// every kill is a mid-stream loss the client must replay through.
	nodePlan := func(ev clustertest.FaultEvent) clustertest.FaultAction {
		if ev.Dir != clustertest.ToNode || ev.Frame.Type != cluster.FrameFeed {
			return clustertest.Pass
		}
		mu.Lock()
		defer mu.Unlock()
		if nodeKills < 6 && rng.Intn(5) == 0 {
			nodeKills++
			return clustertest.Kill
		}
		return clustertest.Pass
	}

	srv := startStateServer(t)
	stateProxy := clustertest.StartChaosProxy(t, srv.Addr().String(), statePlan)
	h := clustertest.NewHarnessConfig(t, set, equivK, clustertest.HarnessConfig{
		Router:   cluster.RouterConfig{Client: cluster.ClientConfig{Reconnect: fastReconnect()}},
		TierAddr: stateProxy.Addr(),
		Tier: statestore.ClientConfig{
			FlushCount:     8,
			FlushAge:       2 * time.Millisecond,
			RetryAttempts:  8,
			RetryBaseDelay: time.Millisecond,
			RetryMaxDelay:  20 * time.Millisecond,
		},
	}, "n1")
	n2 := h.StartNode(t, "n2")
	nodeProxy := clustertest.StartChaosProxy(t, n2.Addr().String(), nodePlan)
	if err := h.Router.AddNode(cluster.Member{Name: "n2", Addr: nodeProxy.Addr()}); err != nil {
		t.Fatal(err)
	}

	split := len(txs) / 2
	feedChunks(t, h.Router, txs[:split], 50)
	syncRouter(t, h.Router)

	// Mid-stream, under fire: checkpoint n1 (its spills retry through
	// the dying state connections), then join a cold node — n1's
	// checkpointed movers warm-restore, n2's live movers park in the
	// tier.
	if _, failed, err := h.Node("n1").Monitor().Checkpoint(); err != nil {
		t.Fatalf("checkpoint under chaos: %v (%d devices failed)", err, failed)
	}
	flushTier(t, h.Tier("n1"))
	h.Join(t, "n3")

	feedChunks(t, h.Router, txs[split:], 50)
	syncRouter(t, h.Router)
	stateProxy.SetPlan(nil)
	nodeProxy.SetPlan(nil)
	if err := h.Router.Flush(); err != nil {
		t.Fatal(err)
	}

	if stateProxy.Kills() == 0 {
		t.Fatal("no state-server connection was ever killed — the chaos proved nothing")
	}
	if nodeProxy.Kills() == 0 {
		t.Fatal("no node connection was ever killed — the chaos proved nothing")
	}
	t.Logf("survived %d state-server kills and %d node kills", stateProxy.Kills(), nodeProxy.Kills())
	if d := cluster.ReadClusterStats().Sub(prev); d.WarmRestores == 0 {
		t.Fatalf("the mid-chaos join never warm-restored: %+v", d)
	}
	clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
}

// TestChaosStateTierPartitionDegradesLossy pins the degradation mode the
// tentpole promises: with the state server unreachable, the feed path's
// spill Puts fail fast (bounded queue, ErrQueueFull) instead of
// blocking, and after the partition heals the queued tail still lands.
func TestChaosStateTierPartitionDegradesLossy(t *testing.T) {
	srv := startStateServer(t)
	proxy := clustertest.StartChaosProxy(t, srv.Addr().String(), nil)
	c, err := statestore.Dial(proxy.Addr(), statestore.ClientConfig{
		MaxPending:     8,
		FlushCount:     4,
		FlushAge:       2 * time.Millisecond,
		RetryAttempts:  1,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  2 * time.Millisecond,
		DialTimeout:    200 * time.Millisecond,
		RPCTimeout:     200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	proxy.Partition()
	start := time.Now()
	full := 0
	for i := 0; i < 64; i++ {
		err := c.Put(fmt.Sprintf("10.9.0.%d", i), []byte("state"))
		if errors.Is(err, statestore.ErrQueueFull) {
			full++
		} else if err != nil {
			t.Fatalf("unexpected Put error: %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("64 Puts took %v across a partition — the feed path must not block", elapsed)
	}
	if full == 0 {
		t.Fatal("the bounded queue never rejected a Put during the partition")
	}
	waitFailures := time.Now().Add(5 * time.Second)
	for c.Stats().FlushFailures == 0 {
		if time.Now().After(waitFailures) {
			t.Fatal("the flusher never reported a failure during the partition")
		}
		time.Sleep(time.Millisecond)
	}

	// Heal: the surviving queue drains and the tier catches up.
	proxy.Heal()
	flushTier(t, c)
	if got := srv.Len(); got == 0 {
		t.Fatal("no queued spill survived the partition")
	} else if got > 8 {
		t.Fatalf("server holds %d devices, queue bound was 8", got)
	}
	t.Logf("partition: %d fail-fast rejections, %d devices recovered after heal", full, srv.Len())
}
