package cluster_test

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webtxprofile/internal/cluster"
	"webtxprofile/internal/cluster/clustertest"
	"webtxprofile/internal/core"
	"webtxprofile/internal/weblog"
)

// High-availability suite: every fault here is injected at an exact
// protocol step through clustertest.ChaosProxy, so the runs are
// deterministic (probabilistic choices replay from the logged
// WTP_CHAOS_SEED) and the invariant under test is always the same one —
// per-device alert sequences byte-identical to a single never-resharded
// monitor, no matter which connection died when.

// fastReconnect keeps chaos runs quick: the production defaults back off
// over seconds, which is right for operators and wrong for tests.
func fastReconnect() cluster.ReconnectConfig {
	return cluster.ReconnectConfig{MaxAttempts: 20, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}
}

// TestChaosReconnectStorm kills the connection under a bounded random
// sample of feed frames to one node. The client must reconnect, replay
// its unacknowledged queue, and the node's dedup window must collapse the
// re-sends — proven end to end by alert-sequence equivalence, which fails
// on any lost or double-fed transaction.
func TestChaosReconnectStorm(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, _ := clustertest.Workload(t, ds, 6, 4000)
	want := clustertest.ReferenceSigs(t, set, equivK, txs)

	rng := rand.New(rand.NewSource(clustertest.ChaosSeed(t)))
	var mu sync.Mutex
	kills := 0
	// Only feed frames are killed: handshakes always succeed, so every
	// kill is a mid-stream loss, never a dial failure counting toward the
	// node-down verdict.
	plan := func(ev clustertest.FaultEvent) clustertest.FaultAction {
		if ev.Dir != clustertest.ToNode || ev.Frame.Type != cluster.FrameFeed {
			return clustertest.Pass
		}
		mu.Lock()
		defer mu.Unlock()
		if kills < 6 && rng.Intn(4) == 0 {
			kills++
			return clustertest.Kill
		}
		return clustertest.Pass
	}

	h := clustertest.NewHarnessConfig(t, set, equivK, clustertest.HarnessConfig{
		Router: cluster.RouterConfig{Client: cluster.ClientConfig{Reconnect: fastReconnect()}},
	}, "n1")
	n2 := h.StartNode(t, "n2")
	proxy := clustertest.StartChaosProxy(t, n2.Addr().String(), plan)
	if err := h.Router.AddNode(cluster.Member{Name: "n2", Addr: proxy.Addr()}); err != nil {
		t.Fatal(err)
	}

	// Feed in small batches so the stream to n2 spans many frames — each
	// one a kill candidate.
	for i := 0; i < len(txs); i += 50 {
		end := min(i+50, len(txs))
		if err := h.Router.FeedBatch(txs[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	// Feeding is asynchronous — the frames cross the proxy (and meet the
	// storm) during this barrier. Sync is idempotent, so it retries until
	// the kill budget runs out and a pass gets through.
	for attempt := 0; ; attempt++ {
		err := h.Router.Sync()
		if err == nil {
			break
		}
		if attempt >= 10 {
			t.Fatalf("sync never survived the storm: %v", err)
		}
	}
	proxy.SetPlan(nil)
	if err := h.Router.Flush(); err != nil {
		t.Fatal(err)
	}
	if proxy.Kills() == 0 {
		t.Fatal("no connection was ever killed — the storm tested nothing")
	}
	t.Logf("survived %d mid-stream connection kills", proxy.Kills())
	clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
}

// TestReplayOverflowTyped partitions the node and feeds past the replay
// queue's depth: the overflow must surface as the typed ErrReplayOverflow
// (callers shed load on it), and after the partition heals the queued
// entries must still deliver.
func TestReplayOverflowTyped(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, devices := clustertest.Workload(t, ds, 3, 60)
	h := clustertest.NewHarness(t, set, equivK) // nodes only, no router members
	n := h.StartNode(t, "solo")
	proxy := clustertest.StartChaosProxy(t, n.Addr().String(), nil)

	const depth = 4
	rc := fastReconnect()
	rc.MaxAttempts = 500 // survive the partition; the test heals it
	rc.ReplayDepth = depth
	c, err := cluster.DialNodeConfig(proxy.Addr(), nil, cluster.ClientConfig{Reconnect: rc})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	i := 0
	for ; i < 10; i++ {
		if err := c.FeedSync(txs[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	proxy.Partition()

	// The next feeds buffer (the queue has room even before the client
	// notices the dead socket); once the queue is full the call blocks
	// until the failure is detected, then fails typed.
	var overflow error
	for i < len(txs) {
		err := c.Feed(txs[i : i+1])
		if err != nil {
			overflow = err
			break
		}
		i++
	}
	if overflow == nil {
		t.Fatal("the replay queue never overflowed across a partition")
	}
	if !errors.Is(overflow, cluster.ErrReplayOverflow) {
		t.Fatalf("overflow error is not ErrReplayOverflow: %v", overflow)
	}
	if i >= len(txs)-1 {
		t.Fatalf("only %d of %d transactions left to deliver after overflow — workload too small to prove recovery", len(txs)-i, len(txs))
	}

	proxy.Heal()
	// The overflowed transaction was never queued: delivery resumes from
	// it, retrying while the backlog drains.
	deadline := time.Now().Add(10 * time.Second)
	for ; i < len(txs); i++ {
		for {
			err := c.FeedSync(txs[i : i+1])
			if err == nil {
				break
			}
			if !errors.Is(err, cluster.ErrReplayOverflow) || time.Now().After(deadline) {
				t.Fatalf("tx %d after heal: %v", i, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if devs, err := c.Devices(); err != nil || devs != len(devices) {
		t.Fatalf("Devices = %d, %v; want %d — the healed queue did not deliver", devs, err, len(devices))
	}
}

// TestRouterReplicationKillMidStream runs two router replicas over the
// same nodes: B adopts A's membership by gossip, A feeds the first
// segment and crashes, B feeds the rest. The shared recorder must see
// every alert exactly once (replica subscriptions overlap, so nonzero
// dedup proves B really was live the whole time) and the merged sequence
// must match the reference.
func TestRouterReplicationKillMidStream(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, _ := clustertest.Workload(t, ds, 6, 4000)
	want := clustertest.ReferenceSigs(t, set, equivK, txs)
	h := clustertest.NewHarness(t, set, equivK, "n1", "n2")

	rB := cluster.NewRouter(h.Alerts.Record, cluster.RouterConfig{})
	defer rB.Close()
	if _, err := rB.MergeGossip(h.Router.Gossip()); err != nil {
		t.Fatal(err)
	}
	if got, wantView := rB.View(), h.Router.View(); !reflect.DeepEqual(got, wantView) {
		t.Fatalf("replica view %+v after gossip, want %+v", got, wantView)
	}

	cut := len(txs) * 3 / 5
	if err := h.Router.FeedBatch(txs[:cut]); err != nil {
		t.Fatal(err)
	}
	// Sync, not Flush: the nodes must have processed A's queued feeds
	// before B takes over the stream, but no window may complete early.
	if err := h.Router.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := h.Router.Close(); err != nil { // replica A crashes
		t.Fatal(err)
	}
	if err := rB.FeedBatch(txs[cut:]); err != nil {
		t.Fatal(err)
	}
	if err := rB.Flush(); err != nil {
		t.Fatal(err)
	}
	if h.Alerts.Dups() == 0 {
		t.Error("no duplicate alert delivery was collapsed — the replica subscriptions never overlapped")
	}
	clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
}

// TestChaosPartitionMidDrain partitions a leaving node away right after
// its park ran: the park reply is lost and every reconnect dies. The
// router cannot reach the leaving node, so it moves the devices on
// without it — and because the park had already put them in the state
// tier, each resumes at its new owner with nothing lost: the removal
// completes and the alerts match the reference.
func TestChaosPartitionMidDrain(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, devices := clustertest.Workload(t, ds, 7, 4000)
	want := clustertest.ReferenceSigs(t, set, equivK, txs)

	rc := fastReconnect()
	rc.MaxAttempts = 2 // give up quickly once the partition hits
	// Two members, so the removal parks all of n3's devices in one go.
	h := clustertest.NewHarnessConfig(t, set, equivK, clustertest.HarnessConfig{
		Router: cluster.RouterConfig{Client: cluster.ClientConfig{Reconnect: rc}},
	}, "n1")

	n3 := h.StartNode(t, "n3")
	var mu sync.Mutex
	armed, dead := false, false
	var parkConn int
	var parkSeq uint64
	plan := func(ev clustertest.FaultEvent) clustertest.FaultAction {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case dead:
			return clustertest.Kill
		case armed && ev.Dir == clustertest.ToNode && ev.Frame.Type == cluster.FrameExport && len(ev.Frame.Devices) > 0:
			parkConn, parkSeq = ev.Conn, ev.Frame.Seq
			return clustertest.Pass // the park reaches the node and runs…
		case parkSeq != 0 && ev.Dir == clustertest.ToClient && ev.Conn == parkConn && ev.Frame.Seq == parkSeq:
			dead = true // …but its reply is lost, and the node partitions away
			return clustertest.Kill
		}
		return clustertest.Pass
	}
	proxy := clustertest.StartChaosProxy(t, n3.Addr().String(), plan)
	if err := h.Router.AddNode(cluster.Member{Name: "n3", Addr: proxy.Addr()}); err != nil {
		t.Fatal(err)
	}

	half := len(txs) / 2
	if err := h.Router.FeedBatch(txs[:half]); err != nil {
		t.Fatal(err)
	}
	syncRouter(t, h.Router)
	onN3 := 0
	for _, d := range devices {
		if owner, _ := h.Router.Owner(d); owner == "n3" {
			onN3++
		}
	}
	if onN3 == 0 {
		t.Fatal("no device lives on n3 — the removal would move nothing")
	}
	mu.Lock()
	armed = true
	mu.Unlock()

	err := h.Router.RemoveNode("n3")
	if err == nil || !strings.Contains(err.Error(), "moved without it") {
		t.Fatalf("RemoveNode(n3) = %v, want a report that the devices moved without the unreachable node", err)
	}
	if proxy.Kills() == 0 {
		t.Fatal("the park reply was never cut")
	}
	for _, m := range h.Router.View().Members {
		if m.Name == "n3" {
			t.Fatal("n3 is still a member after its removal")
		}
	}
	if d := n3.Monitor().Devices(); d != 0 {
		t.Errorf("n3 still tracks %d devices after its park", d)
	}
	if err := h.Router.FeedBatch(txs[half:]); err != nil {
		t.Fatal(err)
	}
	if err := h.Router.Flush(); err != nil {
		t.Fatal(err)
	}
	clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
	if st := h.State.Stats(); st.GetHits == 0 || st.StaleDrops != 0 {
		t.Errorf("tier stats %+v: want rehydrations and no stale drops", st)
	}
}

// countingStore counts the Puts that reach a node's tier client.
type countingStore struct {
	core.StateStore
	puts *atomic.Int64
}

func (c countingStore) Put(device string, blob []byte) error {
	c.puts.Add(1)
	return c.StateStore.Put(device, blob)
}

// TestChaosParkReplyLost cuts the source's connection after a park ran,
// so its reply never arrives. The client retries the park on a new
// connection; the retry finds nothing left to spill, and the move
// completes: every mover was spilled exactly once, no spill is dropped
// as stale, and the alerts match a single monitor.
func TestChaosParkReplyLost(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, devices := clustertest.Workload(t, ds, 9, 4000)
	want := clustertest.ReferenceSigs(t, set, equivK, txs)
	rng := rand.New(rand.NewSource(clustertest.ChaosSeed(t)))
	cut := len(txs)/4 + rng.Intn(len(txs)/2)

	var puts atomic.Int64
	h := clustertest.NewHarnessConfig(t, set, equivK, clustertest.HarnessConfig{
		Router: cluster.RouterConfig{Client: cluster.ClientConfig{Reconnect: fastReconnect()}},
		NodePrep: func(name string, cfg *cluster.NodeConfig) {
			if name == "n1" {
				cfg.Monitor.Spill = countingStore{cfg.Monitor.Spill, &puts}
			}
		},
	})
	n1 := h.StartNode(t, "n1")
	var mu sync.Mutex
	var parkConn int
	var parkSeq uint64
	cutOnce := false
	plan := func(ev clustertest.FaultEvent) clustertest.FaultAction {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case parkSeq == 0 && ev.Dir == clustertest.ToNode && ev.Frame.Type == cluster.FrameExport && len(ev.Frame.Devices) > 0:
			parkConn, parkSeq = ev.Conn, ev.Frame.Seq
		case !cutOnce && parkSeq != 0 && ev.Dir == clustertest.ToClient && ev.Conn == parkConn && ev.Frame.Seq == parkSeq:
			cutOnce = true
			return clustertest.Kill
		}
		return clustertest.Pass
	}
	proxy := clustertest.StartChaosProxy(t, n1.Addr().String(), plan)
	if err := h.Router.AddNode(cluster.Member{Name: "n1", Addr: proxy.Addr()}); err != nil {
		t.Fatal(err)
	}
	feedChunks(t, h.Router, txs[:cut], 50)
	syncRouter(t, h.Router)

	before := puts.Load()
	h.Join(t, "n2")
	if proxy.Kills() != 1 {
		t.Fatalf("%d connections cut, want the one carrying the park reply", proxy.Kills())
	}
	moved := 0
	for _, d := range devices {
		if owner, _ := h.Router.Owner(d); owner == "n2" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the join moved no device")
	}
	if spilled := puts.Load() - before; spilled != int64(moved) {
		t.Errorf("the move spilled %d times for %d movers — the retried park must spill nothing", spilled, moved)
	}

	feedChunks(t, h.Router, txs[cut:], 50)
	if err := h.Router.Flush(); err != nil {
		t.Fatal(err)
	}
	clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
	if d := h.State.Stats().StaleDrops; d != 0 {
		t.Errorf("the server dropped %d spills as stale", d)
	}
}

// TestChaosDestinationLostAfterPark partitions the destination away
// between the park and the drain's check of it: the devices settle back
// on the source and rehydrate there from the tier, the destination never
// holds one, and the alerts match a single monitor.
func TestChaosDestinationLostAfterPark(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, devices := clustertest.Workload(t, ds, 9, 4000)
	want := clustertest.ReferenceSigs(t, set, equivK, txs)
	rng := rand.New(rand.NewSource(clustertest.ChaosSeed(t)))
	cut := len(txs)/4 + rng.Intn(len(txs)/2)

	rc := fastReconnect()
	rc.MaxAttempts = 2
	h := clustertest.NewHarnessConfig(t, set, equivK, clustertest.HarnessConfig{
		Router: cluster.RouterConfig{Client: cluster.ClientConfig{Reconnect: rc}},
	}, "n1")
	feedChunks(t, h.Router, txs[:cut], 50)
	syncRouter(t, h.Router)
	prev := cluster.ReadClusterStats()

	n2 := h.StartNode(t, "n2")
	var mu sync.Mutex
	parks, dead := 0, false
	plan := func(ev clustertest.FaultEvent) clustertest.FaultAction {
		mu.Lock()
		defer mu.Unlock()
		if !dead && ev.Dir == clustertest.ToNode && ev.Frame.Type == cluster.FrameExport {
			parks++
			dead = parks == 2 // the join probe passes; the drain's check does not
		}
		if dead {
			return clustertest.Kill
		}
		return clustertest.Pass
	}
	proxy := clustertest.StartChaosProxy(t, n2.Addr().String(), plan)
	err := h.Router.AddNode(cluster.Member{Name: "n2", Addr: proxy.Addr()})
	if err == nil || !strings.Contains(err.Error(), "kept on n1") {
		t.Fatalf("AddNode(n2) = %v, want the devices kept on n1", err)
	}
	if d := cluster.ReadClusterStats().Sub(prev); d.HandoffAborts == 0 {
		t.Errorf("no drain counted as settled back on its source: %+v", d)
	}
	for _, d := range devices {
		if owner, _ := h.Router.Owner(d); owner != "n1" {
			t.Errorf("device %s routed to %s, want n1", d, owner)
		}
	}
	if err := h.Router.RemoveNode("n2"); err != nil {
		t.Errorf("RemoveNode(n2): %v", err)
	}

	feedChunks(t, h.Router, txs[cut:], 50)
	if err := h.Router.Flush(); err != nil {
		t.Fatal(err)
	}
	clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
	if d := n2.Monitor().Devices(); d != 0 {
		t.Errorf("the unreachable destination tracks %d devices", d)
	}
	if h.State.Stats().GetHits == 0 {
		t.Error("no parked device rehydrated on the source")
	}
}

// TestRouterRouteSweep bounds the routing table: a device idle past
// RouteIdleTTL in stream time loses its route, and a late transaction
// re-derives the same placement — so sweeping is invisible to
// correctness, which the equivalence check confirms.
func TestRouterRouteSweep(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	all, devices := clustertest.Workload(t, ds, 5, 4000)
	idle := devices[0]
	cutoff := all[len(all)/2].Timestamp

	// The idle device goes quiet at the cutoff; exactly one of its late
	// transactions is held back and fed after everything else.
	var early, late []weblog.Transaction
	var held weblog.Transaction
	haveHeld := false
	for _, tx := range all {
		if tx.SourceIP == idle && !tx.Timestamp.Before(cutoff) {
			if !haveHeld {
				held, haveHeld = tx, true
			}
			continue
		}
		if tx.Timestamp.Before(cutoff) {
			early = append(early, tx)
		} else {
			late = append(late, tx)
		}
	}
	if !haveHeld {
		t.Fatal("workload has no late transaction for the idle device")
	}
	stream := make([]weblog.Transaction, 0, len(early)+len(late)+1)
	stream = append(append(append(stream, early...), late...), held)
	want := clustertest.ReferenceSigs(t, set, equivK, stream)

	ttl := all[len(all)-1].Timestamp.Sub(cutoff) / 4
	if ttl <= 0 {
		t.Fatalf("workload spans no stream time past the cutoff")
	}
	h := clustertest.NewHarnessConfig(t, set, equivK, clustertest.HarnessConfig{
		Router: cluster.RouterConfig{RouteIdleTTL: ttl},
	}, "n1", "n2")

	if err := h.Router.FeedBatch(early); err != nil {
		t.Fatal(err)
	}
	ownerBefore, ok := h.Router.Owner(idle)
	if !ok {
		t.Fatalf("device %s has no route while actively feeding", idle)
	}
	if err := h.Router.FeedBatch(late); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Router.Owner(idle); ok {
		t.Errorf("device %s still routed after %v of stream idleness", idle, ttl)
	}
	if n := h.Router.Devices(); n >= len(devices) {
		t.Errorf("routing table holds %d routes, want under %d — the sweep is not bounding it", n, len(devices))
	}
	if err := h.Router.FeedBatch([]weblog.Transaction{held}); err != nil {
		t.Fatal(err)
	}
	ownerAfter, ok := h.Router.Owner(idle)
	if !ok {
		t.Fatalf("device %s has no route after its late transaction", idle)
	}
	if ownerAfter != ownerBefore {
		t.Errorf("device %s re-placed on %s after the sweep, was on %s — placement must be derivable", idle, ownerAfter, ownerBefore)
	}
	if err := h.Router.Flush(); err != nil {
		t.Fatal(err)
	}
	clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
}

// TestGossipWireExchange runs one gossip exchange over the wire and
// requires full convergence: the fresh replica adopts the serving
// router's membership and override table, byte for byte, and a repeat
// exchange changes nothing.
func TestGossipWireExchange(t *testing.T) {
	set, _ := clustertest.TrainedSet(t)
	h := clustertest.NewHarness(t, set, equivK, "n1", "n2")

	// Seed a nonempty override table — one live pin, one tombstone — the
	// way a peer's gossip would.
	var tbl cluster.OverrideTable
	tbl.Set(cluster.Override{Device: "10.9.0.1", Node: "n1", Ver: 7})
	tbl.Set(cluster.Override{Device: "10.9.0.2", Ver: 3})
	if _, err := h.Router.MergeGossip(cluster.GossipState{Overrides: tbl.Snapshot()}); err != nil {
		t.Fatal(err)
	}

	srv, err := cluster.ServeGossip(h.Router, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rB := cluster.NewRouter(nil, cluster.RouterConfig{})
	defer rB.Close()
	for round := 1; round <= 2; round++ {
		if err := rB.GossipWith(srv.Addr().String()); err != nil {
			t.Fatalf("exchange %d: %v", round, err)
		}
		a, b := h.Router.Gossip(), rB.Gossip()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("exchange %d did not converge:\n a: %+v\n b: %+v", round, a, b)
		}
	}
	if v := rB.View(); len(v.Members) != 2 {
		t.Fatalf("replica adopted %d members, want 2", len(v.Members))
	}
}
