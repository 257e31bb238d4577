package cluster_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"webtxprofile/internal/cluster"
	"webtxprofile/internal/cluster/clustertest"
)

// Fault-injection suite for membership changes: a join whose new node
// refuses or dies after the sources parked the movers is called off —
// every mover settles back on its source with no identification state
// lost, and the view is unchanged — and membership events must be
// idempotent. The failing nodes are protocol-level impostors
// (clustertest.FlakyNode), so the router is tested against real wire
// behaviour, not injected hooks.

// assertViewKept checks what a called-off membership change leaves: the
// view exactly as it was before, and no device routed to a node outside
// it.
func assertViewKept(t *testing.T, r *cluster.Router, before cluster.Membership, devices []string) {
	t.Helper()
	if v := r.View(); !reflect.DeepEqual(v, before) {
		t.Errorf("the called-off change moved the view: %+v -> %+v", before, v)
	}
	members := make(map[string]bool)
	for _, m := range before.Members {
		members[m.Name] = true
	}
	for _, d := range devices {
		if owner, ok := r.Owner(d); ok && !members[owner] {
			t.Errorf("device %s routed to %s, which is not a member", d, owner)
		}
	}
}

// runFlakyJoin feeds half the workload into a healthy 2-node cluster,
// joins a flaky node (which answers the join probe, then fails every park
// per mode), feeds the rest, and asserts nothing diverged from the
// single-monitor reference.
func runFlakyJoin(t *testing.T, mode clustertest.FlakyMode) {
	set, ds := clustertest.TrainedSet(t)
	txs, devices := clustertest.Workload(t, ds, 7, 4000)
	want := clustertest.ReferenceSigs(t, set, equivK, txs)
	h := clustertest.NewHarness(t, set, equivK, "n1", "n2")

	half := len(txs) / 2
	if err := h.Router.FeedBatch(txs[:half]); err != nil {
		t.Fatal(err)
	}
	v0 := h.Router.View()
	flaky := clustertest.StartFlakyNode(t, "chaos", mode, "injected destination failure")
	err := h.Router.AddNode(cluster.Member{Name: "chaos", Addr: flaky.Addr()})
	if err == nil {
		t.Fatal("AddNode(flaky) reported success though the destination failed every check")
	}
	if !strings.Contains(err.Error(), "kept on") {
		t.Errorf("AddNode error does not describe the fallback: %v", err)
	}
	// The parked devices rehydrate on their source by themselves: a
	// failed drain must not tell the operator to clean up a stale copy.
	if strings.Contains(err.Error(), "stale") {
		t.Errorf("failed drain warns about a stale copy — parked devices rehydrate on the source: %v", err)
	}
	if flaky.Parks() < 2 {
		t.Fatalf("%d parks reached the flaky node, want the join probe and a destination check", flaky.Parks())
	}
	// Every device must still be owned by a healthy founding member.
	for _, d := range devices {
		owner, ok := h.Router.Owner(d)
		if !ok {
			t.Fatalf("device %s lost its route", d)
		}
		if owner == "chaos" {
			t.Errorf("device %s routed to the node that failed its check", d)
		}
	}
	assertViewKept(t, h.Router, v0, devices)
	// The operator's old move after a failed join, dropping the broken
	// member, is a no-op now: the node never became a member. Repeating
	// it is a no-op too.
	if err := h.Router.RemoveNode("chaos"); err != nil {
		t.Errorf("RemoveNode(chaos): %v", err)
	}
	if err := h.Router.RemoveNode("chaos"); err != nil {
		t.Errorf("second RemoveNode(chaos): %v", err)
	}
	if err := h.Router.FeedBatch(txs[half:]); err != nil {
		t.Fatal(err)
	}
	if err := h.Router.Flush(); err != nil {
		t.Fatal(err)
	}
	// The proof that no state was lost: alert sequences byte-identical
	// to the never-resharded reference, across the failed rebalance.
	clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
	if h.State.Stats().GetHits == 0 {
		t.Error("no parked device rehydrated on its source")
	}
}

func TestClusterImportRefusedKeepsOldOwner(t *testing.T) {
	runFlakyJoin(t, clustertest.FailDestination)
}

func TestClusterImporterDiesMidDrain(t *testing.T) {
	runFlakyJoin(t, clustertest.DieAsDestination)
}

// TestCalledOffJoinRouteSweep: a called-off join leaves nothing to
// remember. The flaky node fails the join's confirm, so every mover
// settles back on its source; then the stream jumps past RouteIdleTTL,
// which sweeps every route, and each device's late transactions re-place
// it by hash — on the node that holds its state, live or parked in the
// tier. Devices first seen after the failed join place on members only,
// and the alerts match the single-monitor reference.
func TestCalledOffJoinRouteSweep(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, devices := clustertest.Workload(t, ds, 12, 4000)
	half := len(txs) / 2
	for i := range txs {
		if i < half && i%12 >= 6 {
			txs[i].SourceIP = devices[i%12-6] // devices 6–11 are first seen after the join
		}
		if i >= half {
			txs[i].Timestamp = txs[i].Timestamp.Add(48 * time.Hour)
		}
	}
	want := clustertest.ReferenceSigs(t, set, equivK, txs)
	h := clustertest.NewHarnessConfig(t, set, equivK, clustertest.HarnessConfig{
		Router: cluster.RouterConfig{RouteIdleTTL: time.Hour},
	}, "n1", "n2")

	if err := h.Router.FeedBatch(txs[:half]); err != nil {
		t.Fatal(err)
	}
	holder := make(map[string]string)
	for _, d := range devices[:6] {
		holder[d], _ = h.Router.Owner(d)
	}
	v0 := h.Router.View()
	flaky := clustertest.StartFlakyNode(t, "chaos", clustertest.FailDestination, "injected destination failure")
	if err := h.Router.AddNode(cluster.Member{Name: "chaos", Addr: flaky.Addr()}); err == nil {
		t.Fatal("AddNode(flaky) reported success though the new node failed its confirm")
	}
	assertViewKept(t, h.Router, v0, devices)

	// The first late transaction moves the stream clock two days on: the
	// sweep drops every route but its own.
	if err := h.Router.FeedBatch(txs[half : half+1]); err != nil {
		t.Fatal(err)
	}
	if n := h.Router.Devices(); n != 1 {
		t.Fatalf("%d routes after a two-day jump in stream time, want only the late transaction's", n)
	}
	if err := h.Router.FeedBatch(txs[half+1:]); err != nil {
		t.Fatal(err)
	}
	for _, d := range devices[:6] {
		if owner, _ := h.Router.Owner(d); owner != holder[d] {
			t.Errorf("device %s re-placed on %s after the sweep, its state is on %s", d, owner, holder[d])
		}
	}
	assertViewKept(t, h.Router, v0, devices)
	if err := h.Router.Flush(); err != nil {
		t.Fatal(err)
	}
	clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
	if h.State.Stats().GetHits == 0 {
		t.Error("no parked device rehydrated on its source")
	}
}

// TestJoinConcurrentNewDevices: devices first seen while a join is in
// flight must not reach the joining node before the join commits, and
// must settle with the join's movers. A second goroutine feeds devices
// never seen before while the new node's confirm is held. Then the
// confirm is lost (the join is called off: none of those devices is
// routed to, or tracked by, the reverted node) or answers (the join
// commits). Either way the stream then jumps past RouteIdleTTL, so every
// route is swept and re-placed by hash: a device left anywhere but its
// owner would split its state. The alerts must match the reference.
func TestJoinConcurrentNewDevices(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, devices := clustertest.Workload(t, ds, 12, 4000)
	half, mid := len(txs)/2, len(txs)*3/4
	for i := range txs {
		if i < half && i%12 >= 6 {
			txs[i].SourceIP = devices[i%12-6] // devices 6–11 are first seen during the join
		}
		if i >= mid {
			txs[i].Timestamp = txs[i].Timestamp.Add(48 * time.Hour)
		}
	}
	want := clustertest.ReferenceSigs(t, set, equivK, txs)

	for _, calledOff := range []bool{true, false} {
		name := map[bool]string{true: "called-off", false: "committed"}[calledOff]
		t.Run(name, func(t *testing.T) {
			rc := fastReconnect()
			rc.MaxAttempts = 2
			h := clustertest.NewHarnessConfig(t, set, equivK, clustertest.HarnessConfig{
				Router: cluster.RouterConfig{RouteIdleTTL: time.Hour, Client: cluster.ClientConfig{Reconnect: rc}},
			}, "n1", "n2")
			if err := h.Router.FeedBatch(txs[:half]); err != nil {
				t.Fatal(err)
			}
			syncRouter(t, h.Router)
			v0 := h.Router.View()

			n3 := h.StartNode(t, "n3")
			confirming, fed := make(chan struct{}), make(chan struct{})
			var mu sync.Mutex
			parks, dead := 0, false
			plan := func(ev clustertest.FaultEvent) clustertest.FaultAction {
				mu.Lock()
				hold := false
				if !dead && ev.Dir == clustertest.ToNode && ev.Frame.Type == cluster.FrameExport {
					parks++
					hold = parks == 2
				}
				mu.Unlock()
				if hold { // the join probe passed; the confirm is held
					close(confirming)
					select {
					case <-fed:
					case <-time.After(30 * time.Second):
					}
					mu.Lock()
					dead = calledOff
					mu.Unlock()
				}
				mu.Lock()
				defer mu.Unlock()
				if dead {
					return clustertest.Kill
				}
				return clustertest.Pass
			}
			proxy := clustertest.StartChaosProxy(t, n3.Addr().String(), plan)

			go func() {
				defer close(fed)
				<-confirming
				if err := h.Router.FeedBatch(txs[half:mid]); err != nil {
					t.Errorf("feeding during the join: %v", err)
				}
			}()
			err := h.Router.AddNode(cluster.Member{Name: "n3", Addr: proxy.Addr()})
			<-fed
			if calledOff {
				if err == nil {
					t.Fatal("AddNode(n3) reported success though its confirm was lost")
				}
				assertViewKept(t, h.Router, v0, devices)
			} else if err != nil {
				t.Fatalf("AddNode(n3): %v", err)
			}
			for _, d := range devices[6:] {
				if _, ok := h.Router.Owner(d); !ok {
					t.Errorf("device %s, first seen during the join, has no route", d)
				}
			}

			if err := h.Router.FeedBatch(txs[mid : mid+1]); err != nil {
				t.Fatal(err)
			}
			if n := h.Router.Devices(); n != 1 {
				t.Fatalf("%d routes after a two-day jump in stream time, want only the late transaction's", n)
			}
			if err := h.Router.FeedBatch(txs[mid+1:]); err != nil {
				t.Fatal(err)
			}
			if err := h.Router.Flush(); err != nil {
				t.Fatal(err)
			}
			clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
			if d := n3.Monitor().Devices(); calledOff && d != 0 {
				t.Errorf("the reverted node tracks %d devices", d)
			}
		})
	}
}

// TestNodeRejectsCorruptImport: what a node cannot do fails exactly that
// request. A node with no state tier refuses every park with an error
// naming the tier, and keeps its devices; an import frame — which only an
// older build sends — cannot be decoded, so it costs its connection and
// nothing else. Either way the node keeps identifying.
func TestNodeRejectsCorruptImport(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, _ := clustertest.Workload(t, ds, 2, 100)
	n, err := cluster.ListenNode("127.0.0.1:0", set, cluster.NodeConfig{Name: "lone", K: equivK})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c, err := cluster.DialNode(n.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	last := len(txs) - 1
	if err := c.FeedSync(txs[:last]); err != nil {
		t.Fatal(err)
	}
	for _, devices := range [][]string{nil, {txs[0].SourceIP}} {
		if _, err := c.Park(devices); !errors.Is(err, cluster.ErrNodeRefused) || !strings.Contains(err.Error(), "state tier") {
			t.Errorf("Park(%v) on a node without a tier = %v, want a refusal naming the state tier", devices, err)
		}
	}
	if devs, err := c.Devices(); err != nil || devs != 2 {
		t.Fatalf("Devices = %d, %v after refused parks; want 2", devs, err)
	}

	// An import frame as an older build wrote it: code 4, a state blob
	// (tag 6) and a handoff id (tag 11).
	expectHangUp(t, n.Addr().String(), []byte{0xf7, 2, 4, 1, 6, 3, 1, 2, 3, 11, 3, 'a', '/', '1'})
	if err := c.FeedSync(txs[last:]); err != nil {
		t.Fatalf("feed after the import frame: %v", err)
	}
	if devs, err := c.Devices(); err != nil || devs != 2 {
		t.Errorf("Devices = %d, %v after the import frame; want 2", devs, err)
	}
}

// TestClusterDuplicateMembershipIdempotent: replaying membership events
// must not change the view, re-drain devices, or disturb routing.
func TestClusterDuplicateMembershipIdempotent(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, _ := clustertest.Workload(t, ds, 5, 500)
	h := clustertest.NewHarness(t, set, equivK, "n1", "n2")
	if err := h.Router.FeedBatch(txs); err != nil {
		t.Fatal(err)
	}
	v0 := h.Router.View()

	// Duplicate AddNode: same member, same address.
	n1 := h.Node("n1")
	if err := h.Router.AddNode(cluster.Member{Name: "n1", Addr: n1.Addr().String()}); err != nil {
		t.Errorf("duplicate AddNode(n1): %v", err)
	}
	// Same name at a different address is a conflict, not a duplicate.
	if err := h.Router.AddNode(cluster.Member{Name: "n1", Addr: "127.0.0.1:1"}); err == nil {
		t.Error("AddNode(n1) at a different address accepted")
	}
	// Duplicate RemoveNode of a node that was never a member.
	if err := h.Router.RemoveNode("never-joined"); err != nil {
		t.Errorf("RemoveNode(never-joined): %v", err)
	}
	if v := h.Router.View(); v.Version != v0.Version || len(v.Members) != len(v0.Members) {
		t.Errorf("duplicate events changed the view: %+v -> %+v", v0, v)
	}

	// Removing the last member must be refused, twice over.
	if err := h.Router.RemoveNode("n2"); err != nil {
		t.Fatalf("RemoveNode(n2): %v", err)
	}
	if err := h.Router.RemoveNode("n1"); err == nil {
		t.Error("removed the last member")
	}
	if v := h.Router.View(); v.Version != v0.Version+1 {
		t.Errorf("version = %d after one effective removal, want %d", v.Version, v0.Version+1)
	}
}

// TestChaosProxyPartitionSeversFreshDials pins Partition against a
// connection still being set up: a client that dialed just before the
// partition must not end up with a live path to the node, whatever step
// of the proxy's accept the partition lands in. Each round dials, cuts
// the node off after a delay that sweeps 0–200µs in 10µs steps (so some
// partitions land while the proxy is still dialing the backend), and
// requires the round trip through the proxy to fail; the backend echoes
// every frame, so a surviving connection shows up as an answer.
func TestChaosProxyPartitionSeversFreshDials(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(conn, conn)
			}()
		}
	}()
	proxy := clustertest.StartChaosProxy(t, ln.Addr().String(), nil)

	var frame bytes.Buffer
	if err := cluster.WriteFrame(&frame, cluster.Frame{Type: cluster.FrameStats, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	const rounds = 600
	for i := 0; i < rounds; i++ {
		proxy.Heal()
		conn, err := net.Dial("tcp", proxy.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// Spin: time.Sleep overshoots delays this short.
		for start := time.Now(); time.Since(start) < time.Duration(i%21)*10*time.Microsecond; {
		}
		proxy.Partition()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(frame.Bytes()); err == nil {
			if _, err := cluster.ReadFrame(conn); err == nil {
				conn.Close()
				t.Fatalf("round %d: a connection dialed before Partition still reached the node", i)
			} else if errors.Is(err, os.ErrDeadlineExceeded) {
				conn.Close()
				t.Fatalf("round %d: a connection dialed before Partition was left open", i)
			}
		}
		conn.Close()
	}
}
