package cluster_test

import (
	"fmt"
	"strings"
	"testing"

	"webtxprofile/internal/cluster"
	"webtxprofile/internal/cluster/clustertest"
	"webtxprofile/internal/core"
	"webtxprofile/internal/weblog"
)

// largestDeviceExport feeds txs to a standalone monitor and returns the
// largest one-device export blob seen at any of the cut points: what a
// node of the cluster under test holds for its biggest device when a
// membership change lands there.
func largestDeviceExport(t *testing.T, set *core.ProfileSet, txs []weblog.Transaction, devices []string, cuts ...int) int {
	t.Helper()
	mon, err := core.NewMonitor(set, equivK, func(core.Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	largest, fed, probes := 0, 0, 0
	for _, cut := range cuts {
		for ; fed < cut; fed++ {
			if err := mon.Feed(txs[fed]); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range devices {
			probes++
			id := fmt.Sprintf("probe/%d", probes)
			blob, _, err := mon.ExportStaged(id, []string{d})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mon.AbortHandoff(id); err != nil {
				t.Fatal(err)
			}
			largest = max(largest, len(blob))
		}
	}
	return largest
}

// feedAll feeds txs through the router one by one.
func feedAll(t *testing.T, r *cluster.Router, txs []weblog.Transaction) {
	t.Helper()
	for _, tx := range txs {
		if err := r.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDrainSplitsOversizeExport: moves between nodes on private stores,
// whose export blobs carry the devices' state, go through however much
// state they carry. The per-handoff cap stands in for the frame limit at
// a size a small workload crosses.
//
//   - split: the cap is a little above the largest one-device export
//     (16 bytes; a device exports in about 120 here), so every drain of
//     several devices is refused whole and split. AddNode and RemoveNode
//     complete, and the alerts match a single monitor's.
//   - single device too large: no device fits, so every move is refused.
//     The devices stay on their source with their state, the removal is
//     called off, and the alerts still match.
func TestDrainSplitsOversizeExport(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, devices := clustertest.Workload(t, ds, 24, 6000)
	want := clustertest.ReferenceSigs(t, set, equivK, txs)
	addAt, removeAt := len(txs)/2, 3*len(txs)/4

	t.Run("split", func(t *testing.T) {
		largest := largestDeviceExport(t, set, txs, devices, addAt, removeAt)
		cluster.SetMaxExportBlob(t, largest+16)
		h := clustertest.NewHarness(t, set, equivK, "n1", "n2")
		feedAll(t, h.Router, txs[:addAt])

		before := h.Router.Handoffs()
		n3 := h.StartNode(t, "n3")
		if err := h.Router.AddNode(cluster.Member{Name: "n3", Addr: n3.Addr().String()}); err != nil {
			t.Fatalf("AddNode(n3): %v", err)
		}
		// One handoff per source (n1, n2) unless an export was split.
		if n := h.Router.Handoffs() - before; n <= 2 {
			t.Errorf("AddNode ran %d handoffs under a %d-byte cap, want more than 2 (split)", n, largest+16)
		}
		feedAll(t, h.Router, txs[addAt:removeAt])

		before = h.Router.Handoffs()
		if err := h.Router.RemoveNode("n1"); err != nil {
			t.Fatalf("RemoveNode(n1): %v", err)
		}
		if n := h.Router.Handoffs() - before; n <= 2 {
			t.Errorf("RemoveNode ran %d handoffs, want more than 2 (split)", n)
		}
		feedAll(t, h.Router, txs[removeAt:])
		if err := h.Router.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, m := range h.Router.View().Members {
			if m.Name == "n1" {
				t.Error("removed node n1 still in the view")
			}
		}
		clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
	})

	t.Run("single device too large", func(t *testing.T) {
		cluster.SetMaxExportBlob(t, 1)
		h := clustertest.NewHarness(t, set, equivK, "n1", "n2")
		feedAll(t, h.Router, txs[:addAt])
		held := h.Node("n1").Monitor().Devices()

		n3 := h.StartNode(t, "n3")
		if err := h.Router.AddNode(cluster.Member{Name: "n3", Addr: n3.Addr().String()}); err == nil {
			t.Error("AddNode moved devices whose state fits in no frame")
		}
		if n := n3.Monitor().Devices(); n != 0 {
			t.Errorf("n3 adopted %d devices, want 0", n)
		}
		feedAll(t, h.Router, txs[addAt:removeAt])

		err := h.Router.RemoveNode("n1")
		if err == nil || !strings.Contains(err.Error(), "aborted") {
			t.Fatalf("RemoveNode(n1) = %v, want an aborted removal", err)
		}
		if n := h.Node("n1").Monitor().Devices(); n < held {
			t.Errorf("n1 holds %d devices after the refused moves, want at least %d", n, held)
		}
		feedAll(t, h.Router, txs[removeAt:])
		if err := h.Router.Flush(); err != nil {
			t.Fatal(err)
		}
		clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
	})
}
