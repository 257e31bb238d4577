package cluster_test

import (
	"testing"
	"time"

	"webtxprofile/internal/cluster"
	"webtxprofile/internal/cluster/clustertest"
	"webtxprofile/internal/weblog"
)

// BenchmarkNodeFeed measures client→node feed throughput over loopback
// TCP (transactions/op = 1): encode, frame, decode and FeedBatch into the
// node's monitor, with the reply awaited per batch (FeedSync) so the
// timer covers delivery, not just the enqueue of the asynchronous Feed.
func BenchmarkNodeFeed(b *testing.B) {
	set, ds := clustertest.TrainedSet(b)
	base, _ := clustertest.Workload(b, ds, 64, 4096)
	span := base[len(base)-1].Timestamp.Sub(base[0].Timestamp) + time.Hour

	n, err := cluster.ListenNode("127.0.0.1:0", set, cluster.NodeConfig{Name: "bench", K: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	c, err := cluster.DialNode(n.Addr().String(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

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
