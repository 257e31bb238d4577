package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"webtxprofile/internal/taxonomy"
	"webtxprofile/internal/weblog"
)

// sampleWireTx is a minimal valid transaction for routing-only tests.
func sampleWireTx() weblog.Transaction {
	return weblog.Transaction{
		Timestamp: time.Date(2015, 1, 5, 9, 0, 0, 0, time.UTC),
		Host:      "svc.example.com", Scheme: taxonomy.SchemeHTTP,
		Action: taxonomy.ActionGet, UserID: "user_1",
		SourceIP: "10.0.0.1", Category: "Games",
		MediaType: taxonomy.MediaType{Super: "text", Sub: "html"},
		AppType:   "app", Reputation: taxonomy.MinimalRisk,
	}
}

// fakeView builds a router with bare member handles (no connections) —
// enough for the placement logic, which never touches clients.
func fakeView(names ...string) *Router {
	r := NewRouter(nil, RouterConfig{})
	for _, n := range names {
		r.nodes[n] = &nodeHandle{member: Member{Name: n, Addr: "-"}}
	}
	return r
}

// ownerOf is the device's rendezvous owner under r's current view.
func ownerOf(r *Router, device string) string {
	owner, _ := r.ownerLocked(device)
	return owner
}

func devices(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("10.%d.%d.%d", i/65536, (i/256)%256, i%256)
	}
	return out
}

// TestRendezvousPlacementStability is the HRW contract: growing the view
// moves devices only onto the new node, shrinking it moves only the
// removed node's devices, and nothing else shifts.
func TestRendezvousPlacementStability(t *testing.T) {
	devs := devices(4096)
	small := fakeView("n1", "n2", "n3")
	big := fakeView("n1", "n2", "n3", "n4")

	moved := 0
	for _, d := range devs {
		a, b := ownerOf(small, d), ownerOf(big, d)
		if a == "" || b == "" {
			t.Fatalf("no owner for %s", d)
		}
		if a != b {
			moved++
			if b != "n4" {
				t.Fatalf("device %s moved %s→%s on AddNode(n4): only moves onto the new node are allowed", d, a, b)
			}
		} else if b == "n4" {
			t.Fatalf("device %s owned by n4 in both views; n4 is not in the small view", d)
		}
	}
	// An expected 1/4 of devices lands on the new node; far off means the
	// hash is biased or the stability property is vacuous.
	if frac := float64(moved) / float64(len(devs)); frac < 0.15 || frac > 0.35 {
		t.Errorf("AddNode moved %.2f of devices, want ≈0.25", frac)
	}

	// Shrink: removing n2 moves exactly n2's devices.
	noN2 := fakeView("n1", "n3", "n4")
	for _, d := range devs {
		a, b := ownerOf(big, d), ownerOf(noN2, d)
		if a == "n2" {
			if b == "n2" {
				t.Fatalf("device %s still owned by removed n2", d)
			}
			continue
		}
		if a != b {
			t.Fatalf("device %s moved %s→%s on RemoveNode(n2) though n2 never owned it", d, a, b)
		}
	}
}

// TestRendezvousPlacementDeterministic: same inputs, same owner — across
// router instances (operators can predict placement).
func TestRendezvousPlacementDeterministic(t *testing.T) {
	a := fakeView("alpha", "beta", "gamma")
	b := fakeView("gamma", "alpha", "beta")
	for _, d := range devices(512) {
		if oa, ob := ownerOf(a, d), ownerOf(b, d); oa != ob {
			t.Fatalf("placement of %s depends on construction order: %s vs %s", d, oa, ob)
		}
	}
}

// TestRendezvousSkipsLeaving: a leaving member takes no new placements.
// A device it owns in the current view waits, unfed, until the removal
// commits or is called off; every other device places as before.
func TestRendezvousSkipsLeaving(t *testing.T) {
	r := fakeView("n1", "n2", "n3")
	r.nodes["n2"].leaving = true
	waiting := 0
	for _, d := range devices(512) {
		owner, next := r.ownerLocked(d)
		if next == "n2" {
			t.Fatalf("device %s placed on leaving node", d)
		}
		rt := r.routeLocked(d)
		if rt.node != owner || rt.draining != (owner == "n2") {
			t.Fatalf("device %s routed %+v, want node %s and waiting only if n2 owns it", d, rt, owner)
		}
		if rt.draining {
			waiting++
		}
	}
	if waiting == 0 {
		t.Fatal("no device is owned by the leaving node — the test proves nothing")
	}
}

// TestRouteSelfHealsVanishedOwner: a route left pointing at a node that
// is gone re-places the device instead of black-holing it.
func TestRouteSelfHealsVanishedOwner(t *testing.T) {
	r := fakeView("n1", "n2")
	r.routes["10.0.0.1"] = &route{node: "ghost"}
	rt := r.routeLocked("10.0.0.1")
	if rt == nil || rt.node == "ghost" {
		t.Fatalf("route not re-placed, got %+v", rt)
	}
	if got := ownerOf(r, "10.0.0.1"); rt.node != got {
		t.Errorf("re-placed on %s, rendezvous says %s", rt.node, got)
	}
}

// TestRouterMemberValidation covers the cheap AddNode argument errors.
func TestRouterMemberValidation(t *testing.T) {
	r := NewRouter(nil, RouterConfig{})
	if err := r.AddNode(Member{Name: "", Addr: "x"}); err == nil {
		t.Error("nameless member accepted")
	}
	if err := r.AddNode(Member{Name: "x", Addr: ""}); err == nil {
		t.Error("addressless member accepted")
	}
	if err := r.Feed(sampleWireTx()); !errors.Is(err, errNoMembers) {
		t.Errorf("feeding empty cluster: %v, want errNoMembers", err)
	}
	if err := r.RemoveNode("nobody"); err != nil {
		t.Errorf("removing unknown member: %v, want nil (idempotent)", err)
	}
}
