package svm

import "sync/atomic"

// KernelStats is a snapshot of the package-wide kernel-matrix work
// counters. They quantify the training cost structure the grid search
// optimizes away: KernelEvals is the number of k(xᵢ,xⱼ) evaluations
// performed while materializing kernel columns (the dominant training
// cost), CacheHits/CacheMisses count columnCache column lookups, and
// GramBuilds counts shared Gram constructions. Counters are cumulative
// and process-wide; benchmarks snapshot before/after (or Reset) to
// attribute work. DotBuilds counts shared dot-product matrix
// constructions (NewDotProducts), the kernel-independent work several
// Gram derivations amortize.
//
// The fused-scorer counters make the population-scale decision path
// observable: PostingsVisited is the postings the scorer walked — fused
// accumulation passes, the pre-accumulate screen's bound-table entries,
// and the per-model index postings of survivors scored on AcceptMask's
// sparse path — ScreenedModels counts models whose scalar kernel loop was
// skipped because a decision screen proved rejection (Scorer.AcceptMask),
// PreScreened the subset the pre-accumulate screen rejected before any
// support-vector posting was accumulated, and
// FusedDecisions/FallbackDecisions split per-window model decisions
// between the fused index and the per-model fallback of unprepared
// models. PostingsVisited includes the blocked layout's lane-pad slots
// (they ride in the same lanes as real postings).
//
// LanePadWaste and IndexBytes are gauges, not counters: they reflect the
// most recently built FusedIndex's memory footprint (pad postings added
// to fill out lanes, and total resident index bytes — see
// FusedIndex.Footprint for the per-index view), so long-running processes
// can observe index memory without holding the index.
type KernelStats struct {
	KernelEvals uint64
	CacheHits   uint64
	CacheMisses uint64
	GramBuilds  uint64
	DotBuilds   uint64

	PostingsVisited   uint64
	ScreenedModels    uint64
	PreScreened       uint64
	FusedDecisions    uint64
	FallbackDecisions uint64

	LanePadWaste uint64
	IndexBytes   uint64
}

var (
	statKernelEvals atomic.Uint64
	statCacheHits   atomic.Uint64
	statCacheMisses atomic.Uint64
	statGramBuilds  atomic.Uint64
	statDotBuilds   atomic.Uint64

	statPostingsVisited   atomic.Uint64
	statScreenedModels    atomic.Uint64
	statPreScreened       atomic.Uint64
	statFusedDecisions    atomic.Uint64
	statFallbackDecisions atomic.Uint64

	statLanePadWaste atomic.Uint64
	statIndexBytes   atomic.Uint64
)

// recordIndexBuild stores the footprint gauges of the index just built.
func recordIndexBuild(f IndexFootprint) {
	statLanePadWaste.Store(uint64(f.LanePadWaste))
	statIndexBytes.Store(uint64(f.IndexBytes))
}

// recordFusedWindow batches the fused scorer's counter updates into at
// most five atomic adds per scored window (not per model or posting),
// keeping the accounting invisible next to the scoring work itself.
func recordFusedWindow(visited, screened, preScreened, fused, fallback int) {
	if visited > 0 {
		statPostingsVisited.Add(uint64(visited))
	}
	if screened > 0 {
		statScreenedModels.Add(uint64(screened))
	}
	if preScreened > 0 {
		statPreScreened.Add(uint64(preScreened))
	}
	if fused > 0 {
		statFusedDecisions.Add(uint64(fused))
	}
	if fallback > 0 {
		statFallbackDecisions.Add(uint64(fallback))
	}
}

// ReadKernelStats returns the cumulative counters. Safe for concurrent use
// with ongoing training; the fields are read independently, so a snapshot
// taken mid-training is approximate across fields but each field is exact.
func ReadKernelStats() KernelStats {
	return KernelStats{
		KernelEvals: statKernelEvals.Load(),
		CacheHits:   statCacheHits.Load(),
		CacheMisses: statCacheMisses.Load(),
		GramBuilds:  statGramBuilds.Load(),
		DotBuilds:   statDotBuilds.Load(),

		PostingsVisited:   statPostingsVisited.Load(),
		ScreenedModels:    statScreenedModels.Load(),
		PreScreened:       statPreScreened.Load(),
		FusedDecisions:    statFusedDecisions.Load(),
		FallbackDecisions: statFallbackDecisions.Load(),

		LanePadWaste: statLanePadWaste.Load(),
		IndexBytes:   statIndexBytes.Load(),
	}
}

// ResetKernelStats zeroes the counters, isolating a measurement window in
// tests and benchmarks.
func ResetKernelStats() {
	statKernelEvals.Store(0)
	statCacheHits.Store(0)
	statCacheMisses.Store(0)
	statGramBuilds.Store(0)
	statDotBuilds.Store(0)

	statPostingsVisited.Store(0)
	statScreenedModels.Store(0)
	statPreScreened.Store(0)
	statFusedDecisions.Store(0)
	statFallbackDecisions.Store(0)

	statLanePadWaste.Store(0)
	statIndexBytes.Store(0)
}

// Sub returns the per-window delta between two cumulative snapshots. The
// footprint gauges (LanePadWaste, IndexBytes) are not deltas; the newer
// snapshot's values carry through unchanged.
func (s KernelStats) Sub(prev KernelStats) KernelStats {
	return KernelStats{
		KernelEvals: s.KernelEvals - prev.KernelEvals,
		CacheHits:   s.CacheHits - prev.CacheHits,
		CacheMisses: s.CacheMisses - prev.CacheMisses,
		GramBuilds:  s.GramBuilds - prev.GramBuilds,
		DotBuilds:   s.DotBuilds - prev.DotBuilds,

		PostingsVisited:   s.PostingsVisited - prev.PostingsVisited,
		ScreenedModels:    s.ScreenedModels - prev.ScreenedModels,
		PreScreened:       s.PreScreened - prev.PreScreened,
		FusedDecisions:    s.FusedDecisions - prev.FusedDecisions,
		FallbackDecisions: s.FallbackDecisions - prev.FallbackDecisions,

		LanePadWaste: s.LanePadWaste,
		IndexBytes:   s.IndexBytes,
	}
}
