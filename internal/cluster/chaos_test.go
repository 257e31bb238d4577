package cluster_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"webtxprofile/internal/cluster"
	"webtxprofile/internal/cluster/clustertest"
)

// Fault-injection suite for the drain path: a router whose drain
// destination refuses or dies after the source parked the devices must
// settle them back on the source with no identification state lost, and
// membership events must be idempotent. The failing nodes are
// protocol-level impostors (clustertest.FlakyNode), so the router is
// tested against real wire behaviour, not injected hooks.

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
	// Drop the broken member (the operator's move after a failed join).
	// It holds no devices, so the removal is a pure membership event —
	// and repeating it is a no-op.
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
