package svm

import "webtxprofile/internal/sparse"

// The accumulate and clear passes of the fused engine over the blocked
// layout (blockedPostings).
//
// Blocks are the outer loop and the window's columns the inner one, so
// every scattered accumulator write of an iteration lands inside one
// cache-resident block span. Per (column, accumulator) there is at most
// one posting and every accumulator receives its terms in window-column
// order, so the sums are bit-identical to the per-model svIndex pass. The
// scatter index is data-dependent, so these loops keep their bounds checks
// (the dense per-model passes that must be bounds-check-free live in
// fusedkernels.go, which CI gates).

// accumulate adds x's contribution to every accumulator of the family,
// one posting at a time, and returns the postings visited.
func (pb *blockedPostings) accumulate(x sparse.Vector, acc []float64) int {
	ncols := pb.ncols
	if ncols <= 0 {
		return 0
	}
	visited := 0
	for b := 0; b < int(pb.nblocks); b++ {
		row := pb.starts[b*int(ncols) : b*int(ncols)+int(ncols)+1]
		for k, c := range x.Idx {
			if c >= ncols {
				break // x.Idx is sorted: everything after is out of range too
			}
			s, e := row[c], row[c+1]
			if s == e {
				continue
			}
			visited += int(e - s)
			w := x.Val[k]
			for p := s; p < e; p++ {
				acc[pb.ord[p]] += w * pb.val[p]
			}
		}
	}
	return visited
}

// reset zeroes the accumulator cells the accumulate pass touched for x,
// which visited postings. Sparse windows re-walk exactly those postings
// (O(matched), never O(population)); a window whose postings cover at
// least a quarter of acc takes one bulk zeroing pass instead — sequential
// stores beat the walk's scattered ones well before the crossover, and
// since the bulk path only fires when cells ≤ 4·visited, clearing stays
// O(matched postings) either way.
func (pb *blockedPostings) reset(x sparse.Vector, acc []float64, visited int) {
	if visited*4 >= len(acc) {
		clear(acc)
		return
	}
	ncols := pb.ncols
	if ncols <= 0 {
		return
	}
	for b := 0; b < int(pb.nblocks); b++ {
		row := pb.starts[b*int(ncols) : b*int(ncols)+int(ncols)+1]
		for _, c := range x.Idx {
			if c >= ncols {
				break
			}
			for _, o := range pb.ord[row[c]:row[c+1]] {
				acc[o] = 0
			}
		}
	}
}
