package cluster_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"webtxprofile/internal/cluster"
	"webtxprofile/internal/cluster/clustertest"
	"webtxprofile/internal/weblog"
)

// legacyHello is the JSON hello an older build opens a connection with.
const legacyHello = `{"type":"hello","seq":1,"node":"router-1","subscribe":true,"wire":2}`

// legacyFrame frames a JSON payload the way older builds did: a 4-byte
// big-endian length, then the JSON.
func legacyFrame(payload string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// lockedBuffer is a log sink safe to read while the node writes to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestNodeRefusesLegacyJSONHello: a peer from an older build opens with a
// JSON hello. The node must refuse it with ErrWireVersion in its log and
// hang up, not answer or fall back.
func TestNodeRefusesLegacyJSONHello(t *testing.T) {
	set, _ := clustertest.TrainedSet(t)
	var logs lockedBuffer
	n, err := cluster.ListenNode("127.0.0.1:0", set, cluster.NodeConfig{
		Name: "n1", K: 2, ErrorLog: log.New(&logs, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	conn, err := net.Dial("tcp", n.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(legacyFrame(legacyHello)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if b, err := io.ReadAll(conn); err != nil || len(b) != 0 {
		t.Fatalf("node answered a JSON hello with %d bytes (err %v), want a hang-up", len(b), err)
	}
	if !strings.Contains(logs.String(), cluster.ErrWireVersion.Error()) {
		t.Errorf("node log %q does not report %v", logs.String(), cluster.ErrWireVersion)
	}
}

// TestDialNodeRefusesLegacyJSONReply: a node from an older build answers
// the hello in JSON. DialNode must fail with ErrWireVersion rather than
// speak to it.
func TestDialNodeRefusesLegacyJSONReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := cluster.ReadFrame(bufio.NewReader(conn)); err != nil {
			return
		}
		conn.Write(legacyFrame(`{"type":"ok","seq":1,"node":"old","wire":1}`))
		io.Copy(io.Discard, conn) // hold the connection until the client hangs up
	}()

	c, err := cluster.DialNodeConfig(ln.Addr().String(), nil, cluster.ClientConfig{
		Reconnect: cluster.ReconnectConfig{MaxAttempts: -1},
	})
	if err == nil {
		c.Close()
		t.Fatal("DialNode accepted a JSON hello reply")
	}
	if !errors.Is(err, cluster.ErrWireVersion) {
		t.Fatalf("DialNode error = %v, want ErrWireVersion", err)
	}
}

// TestWireFeedRejectsInvalidRecord pins server-side validation on the
// feed path: a transaction that fails Validate must be refused as an
// error reply, not fed or dropped silently.
func TestWireFeedRejectsInvalidRecord(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, _ := clustertest.Workload(t, ds, 2, 10)
	n, err := cluster.ListenNode("127.0.0.1:0", set, cluster.NodeConfig{Name: "n1", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c, err := cluster.DialNode(n.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bad := txs[0]
	bad.UserID = ""
	if err := c.FeedSync([]weblog.Transaction{txs[1], bad}); err == nil {
		t.Fatal("feed with an invalid record succeeded, want error reply")
	}
	// The connection must survive a refused frame.
	if err := c.FeedSync(txs[:1]); err != nil {
		t.Fatalf("feed after refused frame: %v", err)
	}
}
