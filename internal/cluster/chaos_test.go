package cluster_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"webtxprofile/internal/cluster"
	"webtxprofile/internal/cluster/clustertest"
)

// Fault-injection suite for the drain path: a router facing a node that
// refuses or dies on an import must keep the affected devices on their
// old owner with no identification state lost, and membership events must
// be idempotent. The failing nodes are protocol-level impostors
// (clustertest.FlakyNode), so the router is tested against real wire
// behaviour, not injected hooks.

// runFlakyJoin feeds half the workload into a healthy 2-node cluster,
// joins a flaky node (which fails every import per mode), feeds the rest,
// and asserts nothing diverged from the single-monitor reference.
func runFlakyJoin(t *testing.T, mode clustertest.FlakyMode) {
	set, ds := clustertest.TrainedSet(t)
	txs, devices := clustertest.Workload(t, ds, 7, 4000)
	want := clustertest.ReferenceSigs(t, set, equivK, txs)
	h := clustertest.NewHarness(t, set, equivK, "n1", "n2")

	half := len(txs) / 2
	if err := h.Router.FeedBatch(txs[:half]); err != nil {
		t.Fatal(err)
	}
	flaky := clustertest.StartFlakyNode(t, "chaos", mode)
	err := h.Router.AddNode(cluster.Member{Name: "chaos", Addr: flaky.Addr()})
	if err == nil {
		t.Fatal("AddNode(flaky) reported success though every import failed")
	}
	if !strings.Contains(err.Error(), "kept on") {
		t.Errorf("AddNode error does not describe the fallback: %v", err)
	}
	// The two-phase handoff aborts and re-adopts on its own: a failed
	// drain must not tell the operator to clean up a stale copy.
	if strings.Contains(err.Error(), "stale") {
		t.Errorf("failed drain warns about a stale copy — abort re-adopts automatically: %v", err)
	}
	if flaky.Imports() == 0 {
		t.Fatal("no import ever reached the flaky node — the drain path was not exercised")
	}
	// Every device must still be owned by a healthy founding member.
	for _, d := range devices {
		owner, ok := h.Router.Owner(d)
		if !ok {
			t.Fatalf("device %s lost its route", d)
		}
		if owner == "chaos" {
			t.Errorf("device %s routed to the node that failed its import", d)
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
}

func TestClusterImportRefusedKeepsOldOwner(t *testing.T) {
	runFlakyJoin(t, clustertest.FailImport)
}

func TestClusterImporterDiesMidDrain(t *testing.T) {
	runFlakyJoin(t, clustertest.DieOnImport)
}

// TestNodeRejectsCorruptImport: a corrupt state blob must fail exactly
// the import RPC — the node survives it and keeps identifying. Exports
// and imports outside a two-phase handoff are refused outright.
func TestNodeRejectsCorruptImport(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, _ := clustertest.Workload(t, ds, 2, 100)
	h := clustertest.NewHarness(t, set, equivK, "lone")
	n := h.Node("lone")

	c, err := cluster.DialNode(n.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, blob := range [][]byte{nil, []byte("not gzip"), {0x1f, 0x8b, 0xff, 0xff}} {
		if _, err := c.ImportHandoff(fmt.Sprintf("corrupt/%d", i), blob); err == nil {
			t.Errorf("corrupt blob %q imported without error", blob)
		}
	}
	// The failing transactions are the imports only: the node still
	// feeds, exports and reports stats afterwards.
	if err := c.Feed(txs); err != nil {
		t.Fatalf("feed after corrupt imports: %v", err)
	}
	devs, err := c.Devices()
	if err != nil || devs != 2 {
		t.Fatalf("Devices = %d, %v; want 2", devs, err)
	}
	blob, exported, err := c.ExportHandoff("move/1", []string{txs[0].SourceIP})
	if err != nil || exported != 1 {
		t.Fatalf("ExportHandoff = %d, %v; want 1", exported, err)
	}
	if imported, err := c.ImportHandoff("move/2", blob); err != nil || imported != 1 {
		t.Fatalf("ImportHandoff of healthy blob = %d, %v; want 1", imported, err)
	}
	if adopted, err := c.Commit("move/2"); err != nil || adopted != 1 {
		t.Fatalf("Commit of healthy blob = %d, %v; want 1", adopted, err)
	}

	conn, err := net.Dial("tcp", n.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw, br := bufio.NewWriter(conn), bufio.NewReader(conn)
	for i, req := range []cluster.Frame{
		{Type: cluster.FrameExport, Devices: []string{txs[1].SourceIP}},
		{Type: cluster.FrameImport, Blob: blob},
	} {
		req.Seq = uint64(i + 1)
		if err := cluster.WriteFrame(bw, req); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		reply, err := cluster.ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Type != cluster.FrameError {
			t.Errorf("%s without a handoff id answered %+v, want an error", req.Type, reply)
		}
	}
	if devs, err := c.Devices(); err != nil || devs != 2 {
		t.Errorf("Devices = %d, %v after refused frames; want 2", devs, err)
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
