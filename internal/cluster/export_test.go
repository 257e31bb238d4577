package cluster

import "testing"

// SetMaxExportBlob lowers the per-handoff blob cap until the test ends,
// so a small workload can drive drains that need several handoffs. Call
// it before starting any node.
func SetMaxExportBlob(tb testing.TB, n int) {
	old := maxExportBlob
	maxExportBlob = n
	tb.Cleanup(func() { maxExportBlob = old })
}

// Handoffs reports how many handoffs the router has started.
func (r *Router) Handoffs() int {
	r.balMu.Lock()
	defer r.balMu.Unlock()
	return r.handoffN
}
