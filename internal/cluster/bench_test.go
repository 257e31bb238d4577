package cluster_test

import (
	"testing"
	"time"

	"webtxprofile/internal/cluster"
	"webtxprofile/internal/cluster/clustertest"
	"webtxprofile/internal/weblog"
)

// benchNodeFeed measures client→node feed throughput over loopback TCP
// at the given wire-version cap (transactions/op = 1): encode, frame,
// decode and FeedBatch into the node's monitor, with the reply awaited
// per batch (FeedSync) so the timer covers delivery, not just the enqueue
// of the asynchronous Feed.
func benchNodeFeed(b *testing.B, maxWire int) {
	set, ds := clustertest.TrainedSet(b)
	base, _ := clustertest.Workload(b, ds, 64, 4096)
	span := base[len(base)-1].Timestamp.Sub(base[0].Timestamp) + time.Hour

	n, err := cluster.ListenNode("127.0.0.1:0", set, cluster.NodeConfig{Name: "bench", K: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	c, err := cluster.DialNodeWire(n.Addr().String(), nil, maxWire)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if c.Wire() != maxWire {
		b.Fatalf("negotiated wire %d, want %d", c.Wire(), maxWire)
	}

	const batch = 512
	buf := make([]weblog.Transaction, 0, batch)
	b.ResetTimer()
	fed := 0
	for fed < b.N {
		// Replay the workload in laps, each lap shifted forward so
		// per-device timestamps stay non-decreasing.
		buf = buf[:0]
		for len(buf) < batch && fed+len(buf) < b.N {
			i := fed + len(buf)
			tx := base[i%len(base)]
			tx.Timestamp = tx.Timestamp.Add(time.Duration(i/len(base)) * span)
			buf = append(buf, tx)
		}
		if err := c.FeedSync(buf); err != nil {
			b.Fatal(err)
		}
		fed += len(buf)
	}
	b.StopTimer()
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNodeFeed compares cluster feed throughput across the two wire
// encodings: v1 JSON frames carrying log lines versus v2 binary frames
// carrying zero-copy transaction records.
func BenchmarkNodeFeed(b *testing.B) {
	b.Run("wire1", func(b *testing.B) { benchNodeFeed(b, cluster.WireV1) })
	b.Run("wire2", func(b *testing.B) { benchNodeFeed(b, cluster.WireV2) })
}
