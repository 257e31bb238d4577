package svm

import "webtxprofile/internal/sparse"

// The accumulate/clear kernels of the fused engine, over the blocked
// lane-padded layout (blockedPostings). Two engines share the layout:
//
//   - The packed kernel (accumulatePacked) hands each lane-padded
//     (block, column) group to the AVX-512 gather–multiply–add–scatter
//     routine in fusedasm_amd64.s. KernelsAuto resolves to it when the CPU
//     supports AVX-512F.
//   - The portable kernel (accumulatePortable) runs the obvious
//     per-posting loop over the very same postings in the very same order.
//     KernelsAuto resolves to it everywhere else, and KernelsPortable
//     forces it.
//
// Both produce bit-identical accumulators: per (column, accumulator) there
// is at most one posting, both engines visit groups in the same order, and
// the packed kernel rounds the multiply and the add separately exactly like
// the Go loop. Clearing (reset) is one Go loop for both.
//
// Blocks are the outer loop and the window's columns the inner one, so
// every scattered accumulator write of an iteration lands inside one
// cache-resident block span. The scatter index is data-dependent, so these
// loops keep their bounds checks (the dense per-model passes that must be
// bounds-check-free live in fusedkernels.go, which CI gates).

// accumulatePacked is the packed engine: the blocked walk, with each
// group's lanes processed by the AVX-512 kernel.
func (pb *blockedPostings) accumulatePacked(x sparse.Vector, acc []float64) int {
	ncols := pb.ncols
	if ncols <= 0 {
		return 0
	}
	xi, xv := x.Idx, x.Val
	if len(xi) > len(xv) {
		xi = xi[:len(xv)]
	}
	visited := 0
	for b := 0; b < int(pb.nblocks); b++ {
		row := pb.starts[b*int(ncols) : b*int(ncols)+int(ncols)+1]
		for k := range xi {
			c := xi[k]
			if c >= ncols {
				break // x.Idx is sorted: everything after is out of range too
			}
			s, e := row[c], row[c+1]
			if s == e {
				continue
			}
			visited += int(e - s)
			accumGroup64(&pb.ord[s], &pb.val[s], int(e-s), xv[k], &acc[0])
		}
	}
	return visited
}

// accumulatePortable is the reference engine: the same blocked walk, one
// posting at a time. Per-accumulator term order is identical to
// accumulatePacked, so results are bit-identical.
func (pb *blockedPostings) accumulatePortable(x sparse.Vector, acc []float64) int {
	ncols := pb.ncols
	if ncols <= 0 {
		return 0
	}
	visited := 0
	for b := 0; b < int(pb.nblocks); b++ {
		row := pb.starts[b*int(ncols) : b*int(ncols)+int(ncols)+1]
		for k, c := range x.Idx {
			if c >= ncols {
				break
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
