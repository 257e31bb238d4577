package cluster

import "sync/atomic"

// Process-wide replication and rebalancing counters, mirroring the
// svm.ReadKernelStats idiom: cheap atomic increments on the hot paths,
// snapshot on demand, Sub for windowed rates. profilerd logs a snapshot
// at front-end shutdown; operators and tests read them to see the
// replication and rebalancing machinery — how often gossip runs and
// converges, how often membership changes are called off, and how many
// devices move through the tier or fail over.
var (
	statGossipRounds     atomic.Uint64
	statViewAdoptions    atomic.Uint64
	statHandoffAborts    atomic.Uint64
	statWarmRestores     atomic.Uint64
	statFailoverReroutes atomic.Uint64
)

// ClusterStats is a point-in-time snapshot of the replication and
// rebalancing counters. All fields are cumulative since process start
// (or the last ResetClusterStats).
type ClusterStats struct {
	// GossipRounds counts anti-entropy exchanges merged into this
	// process's routers — every MergeGossip, whether or not anything
	// changed.
	GossipRounds uint64
	// ViewAdoptions counts membership views actually installed from
	// gossip (newer version, all members reachable): rounds that changed
	// this router's placement, as opposed to no-op exchanges.
	ViewAdoptions uint64
	// HandoffAborts counts membership changes called off — a source
	// refused or could not answer its park, or a destination failed its
	// confirm — so every mover settled back where it was and the view
	// stayed unchanged.
	HandoffAborts uint64
	// WarmRestores counts devices a membership change moved through the
	// state tier — parked by their old owner, or already spilled there.
	// Each rehydrates from the tier at its new owner on its next
	// transaction.
	WarmRestores uint64
	// FailoverReroutes counts devices rerouted off a dead member by
	// FailNode — no park; their state rehydrates from the tier at the
	// new owner on their next transaction.
	FailoverReroutes uint64
}

// ReadClusterStats returns a consistent-enough snapshot (each counter is
// read atomically; the set is not a transaction).
func ReadClusterStats() ClusterStats {
	return ClusterStats{
		GossipRounds:     statGossipRounds.Load(),
		ViewAdoptions:    statViewAdoptions.Load(),
		HandoffAborts:    statHandoffAborts.Load(),
		WarmRestores:     statWarmRestores.Load(),
		FailoverReroutes: statFailoverReroutes.Load(),
	}
}

// ResetClusterStats zeroes every counter (tests; process-wide).
func ResetClusterStats() {
	statGossipRounds.Store(0)
	statViewAdoptions.Store(0)
	statHandoffAborts.Store(0)
	statWarmRestores.Store(0)
	statFailoverReroutes.Store(0)
}

// Sub returns the counter deltas since prev — windowed rates for
// periodic logging.
func (s ClusterStats) Sub(prev ClusterStats) ClusterStats {
	return ClusterStats{
		GossipRounds:     s.GossipRounds - prev.GossipRounds,
		ViewAdoptions:    s.ViewAdoptions - prev.ViewAdoptions,
		HandoffAborts:    s.HandoffAborts - prev.HandoffAborts,
		WarmRestores:     s.WarmRestores - prev.WarmRestores,
		FailoverReroutes: s.FailoverReroutes - prev.FailoverReroutes,
	}
}
