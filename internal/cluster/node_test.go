package cluster_test

import (
	"bufio"
	"net"
	"testing"
	"time"

	"webtxprofile/internal/cluster"
	"webtxprofile/internal/cluster/clustertest"
	"webtxprofile/internal/weblog"
)

// TestNodeProtocolBasics covers the node lifecycle outside the router:
// handshake naming, non-request frames, nameless configs, idempotent
// close.
func TestNodeProtocolBasics(t *testing.T) {
	set, _ := clustertest.TrainedSet(t)
	if _, err := cluster.ListenNode("127.0.0.1:0", set, cluster.NodeConfig{}); err == nil {
		t.Error("nameless node accepted")
	}
	n, err := cluster.ListenNode("127.0.0.1:0", set, cluster.NodeConfig{Name: "basics"})
	if err != nil {
		t.Fatal(err)
	}
	if n.Name() != "basics" {
		t.Errorf("node name = %q", n.Name())
	}
	c, err := cluster.DialNode(n.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "basics" {
		t.Errorf("hello reported node %q, want basics", c.Name())
	}
	if err := c.Flush(); err != nil {
		t.Errorf("flush: %v", err)
	}
	c.Close()
	if err := c.Flush(); err == nil {
		t.Error("RPC on a closed client succeeded")
	}

	// A reply-typed frame sent as a request must earn an error reply,
	// not kill the connection.
	conn, err := net.Dial("tcp", n.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if err := cluster.WriteFrame(bw, cluster.Frame{Type: cluster.FrameOK, Seq: 9}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	reply, err := cluster.ReadFrame(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != cluster.FrameError || reply.Seq != 9 {
		t.Errorf("reply to non-request = %+v, want error with seq 9", reply)
	}

	if err := n.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestNodeStopLeavesMonitorUsable pins the daemon's lossy-shutdown path:
// Stop tears down the network but the monitor must still accept a Flush
// (final end-of-stream alerts) before Close — profilerd's SIGINT handling
// in -cluster mode.
func TestNodeStopLeavesMonitorUsable(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, _ := clustertest.Workload(t, ds, 2, 800)
	n, err := cluster.ListenNode("127.0.0.1:0", set, cluster.NodeConfig{Name: "stopper", K: equivK})
	if err != nil {
		t.Fatal(err)
	}
	// A short reconnect schedule: the point below is that RPCs against a
	// stopped node fail, not how long the default schedule retries.
	c, err := cluster.DialNodeConfig(n.Addr().String(), nil, cluster.ClientConfig{
		Reconnect: cluster.ReconnectConfig{MaxAttempts: 2, BaseDelay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FeedSync(txs); err != nil {
		t.Fatal(err)
	}
	if err := n.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Devices(); err == nil {
		t.Error("RPC succeeded against a stopped node")
	}
	n.Monitor().Flush() // must not panic: the pump is still running
	if devs := n.Monitor().Devices(); devs != 2 {
		t.Errorf("monitor lost devices on Stop: %d, want 2", devs)
	}
	if err := n.Close(); err != nil {
		t.Errorf("close after stop: %v", err)
	}
}

// TestNodeRejectsBadFeedLine: a feed frame carrying a record that fails
// validation is refused whole — nothing before or after the bad record
// is fed.
func TestNodeRejectsBadFeedLine(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, _ := clustertest.Workload(t, ds, 1, 4)
	h := clustertest.NewHarness(t, set, equivK, "solo")
	c, err := cluster.DialNode(h.Node("solo").Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn, err := net.Dial("tcp", h.Node("solo").Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	bad := txs[1]
	bad.SourceIP = ""
	feed := []weblog.Transaction{txs[0], bad, txs[2]}
	if err := cluster.WriteFrame(bw, cluster.Frame{Type: cluster.FrameFeed, Seq: 1, Txs: feed}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	reply, err := cluster.ReadFrame(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != cluster.FrameError {
		t.Fatalf("bad record fed: reply %+v", reply)
	}
	if devs, err := c.Devices(); err != nil || devs != 0 {
		t.Errorf("Devices = %d, %v after rejected feed; want 0", devs, err)
	}
}
