package cluster_test

import (
	"sync"
	"testing"

	"webtxprofile/internal/cluster"
	"webtxprofile/internal/cluster/clustertest"
	"webtxprofile/internal/weblog"
)

// The cluster-equivalence suite: a 3-node cluster with one AddNode and
// one RemoveNode landing mid-stream — while transactions keep flowing
// from a concurrent feeder, so the drain's buffer-and-replay path is
// genuinely exercised — must emit per-device alert sequences
// byte-identical to a single never-resharded monitor. Run with -race.

const equivK = 2

// clusterWorkload builds the shared workload and its reference sequences.
func clusterWorkload(t *testing.T) ([]weblog.Transaction, map[string][]string) {
	t.Helper()
	set, ds := clustertest.TrainedSet(t)
	txs, _ := clustertest.Workload(t, ds, 9, 6000)
	return txs, clustertest.ReferenceSigs(t, set, equivK, txs)
}

// runWithMembershipChanges feeds the workload from one goroutine while
// the test goroutine joins node n4 once a third of the stream is in and
// removes the founding node n2 at two thirds. feed is the per-step feed
// function (single transaction or batch).
func runWithMembershipChanges(t *testing.T, h *clustertest.Harness, txs []weblog.Transaction,
	feed func(stream []weblog.Transaction) error) {
	t.Helper()
	third := make(chan struct{})
	twoThirds := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		thirdFired, twoThirdsFired := false, false
		defer func() {
			// A feed failure must not leave the test goroutine parked on
			// an unfired trigger; the t.Errorf above already failed it.
			if !thirdFired {
				close(third)
			}
			if !twoThirdsFired {
				close(twoThirds)
			}
		}()
		for i := 0; i < len(txs); {
			if !thirdFired && i >= len(txs)/3 {
				thirdFired = true
				close(third)
			}
			if !twoThirdsFired && i >= 2*len(txs)/3 {
				twoThirdsFired = true
				close(twoThirds)
			}
			n := min(64, len(txs)-i)
			if err := feed(txs[i : i+n]); err != nil {
				t.Errorf("feed at %d: %v", i, err)
				return
			}
			i += n
		}
	}()
	<-third
	n4 := h.StartNode(t, "n4")
	if err := h.Router.AddNode(cluster.Member{Name: "n4", Addr: n4.Addr().String()}); err != nil {
		t.Errorf("AddNode(n4): %v", err)
	}
	<-twoThirds
	if err := h.Router.RemoveNode("n2"); err != nil {
		t.Errorf("RemoveNode(n2): %v", err)
	}
	<-done
	if err := h.Router.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	view := h.Router.View()
	if len(view.Members) != 3 {
		t.Errorf("final members = %v, want 3 (n1, n3, n4)", view.Members)
	}
	if view.Version != 5 {
		// 3 founding joins + AddNode(n4) + RemoveNode(n2).
		t.Errorf("membership version = %d, want 5", view.Version)
	}
	for _, m := range view.Members {
		if m.Name == "n2" {
			t.Error("removed node n2 still in the view")
		}
	}
}

// equivWire names the subtest each equivalence suite runs under: the
// binary frame encoding, wire version 2, the only one a node speaks.
const equivWire = "wire2"

func TestClusterEquivalenceFeed(t *testing.T) {
	t.Run(equivWire, func(t *testing.T) {
		txs, want := clusterWorkload(t)
		set, _ := clustertest.TrainedSet(t)
		h := clustertest.NewHarness(t, set, equivK, "n1", "n2", "n3")
		runWithMembershipChanges(t, h, txs, func(stream []weblog.Transaction) error {
			for _, tx := range stream {
				if err := h.Router.Feed(tx); err != nil {
					return err
				}
			}
			return nil
		})
		clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())

		// Fan-in tagging: with devices spread across nodes and two
		// membership changes, alerts must have arrived from more than
		// one origin, and only from nodes that were ever members.
		origins := h.Alerts.Origins()
		if len(origins) < 2 {
			t.Errorf("alerts arrived from %d origin(s) %v, want several", len(origins), origins)
		}
		valid := map[string]bool{"n1": true, "n2": true, "n3": true, "n4": true}
		for node := range origins {
			if !valid[node] {
				t.Errorf("alert tagged with unknown origin %q", node)
			}
		}
	})
}

func TestClusterEquivalenceFeedBatch(t *testing.T) {
	t.Run(equivWire, func(t *testing.T) {
		txs, want := clusterWorkload(t)
		set, _ := clustertest.TrainedSet(t)
		h := clustertest.NewHarness(t, set, equivK, "n1", "n2", "n3")
		runWithMembershipChanges(t, h, txs, h.Router.FeedBatch)
		clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
	})
}

// TestClusterSingleNodeEquivalence pins the degenerate topology: one node
// behind the router behaves exactly like the monitor it wraps.
func TestClusterSingleNodeEquivalence(t *testing.T) {
	txs, want := clusterWorkload(t)
	set, _ := clustertest.TrainedSet(t)
	h := clustertest.NewHarness(t, set, equivK, "solo")
	if err := h.Router.FeedBatch(txs); err != nil {
		t.Fatal(err)
	}
	if err := h.Router.Flush(); err != nil {
		t.Fatal(err)
	}
	clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
	if got := h.Router.Devices(); got != 9 {
		t.Errorf("router placed %d devices, want 9", got)
	}
	if n, err := h.Node("solo").Monitor().Devices(), error(nil); err != nil || n != 9 {
		t.Errorf("node tracks %d devices, want 9", n)
	}
}

// TestClusterConcurrentFeeders drives the router from several goroutines
// owning disjoint device sets (the monitor's per-device single-writer
// contract) under -race, with a membership change mid-flight.
func TestClusterConcurrentFeeders(t *testing.T) {
	txs, want := clusterWorkload(t)
	set, _ := clustertest.TrainedSet(t)
	h := clustertest.NewHarness(t, set, equivK, "n1", "n2")

	const workers = 3
	streams := make([][]weblog.Transaction, workers)
	owner := map[string]int{}
	for _, tx := range txs {
		w, ok := owner[tx.SourceIP]
		if !ok {
			w = len(owner) % workers
			owner[tx.SourceIP] = w
		}
		streams[w] = append(streams[w], tx)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(stream []weblog.Transaction) {
			defer wg.Done()
			for len(stream) > 0 {
				n := min(48, len(stream))
				if err := h.Router.FeedBatch(stream[:n]); err != nil {
					t.Errorf("FeedBatch: %v", err)
					return
				}
				stream = stream[n:]
			}
		}(streams[w])
	}
	n3 := h.StartNode(t, "n3")
	if err := h.Router.AddNode(cluster.Member{Name: "n3", Addr: n3.Addr().String()}); err != nil {
		t.Errorf("AddNode(n3): %v", err)
	}
	wg.Wait()
	if err := h.Router.Flush(); err != nil {
		t.Fatal(err)
	}
	clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
}
