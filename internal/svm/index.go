package svm

import (
	"sync"

	"webtxprofile/internal/sparse"
)

// svIndex is a transposed CSR (inverted index) over a model's support
// vectors: for each feature column, the postings (support-vector ordinal,
// stored value). Besides Model.Decision, it scores the survivors of the
// fused scorer's pre-accumulate screen: when few models survive, walking
// each survivor's own index beats the population-wide fused pass (see
// Scorer.AcceptMask). It exploits that every kernel of the paper factors through
// the dot product x·y — linear and sigmoid directly, polynomial via
// (γ·x·y+c₀)^d, RBF via ‖x−y‖² = ‖x‖²+‖y‖²−2x·y with cached norms — so one
// pass over a window's ~20 non-zeros yields *all* support-vector dot
// products at once, and a tight scalar loop then applies the kernel
// function per SV.
//
// Compared with the per-SV merge join of decisionGeneric (which walks every
// non-zero of every support vector, O(Σᵢ(nnz(xᵢ)+nnz(x)))), the index only
// touches the (sv, column) pairs that actually intersect the window,
// O(nnz(x) + matches + #SVs). On window-shaped data (~20 non-zeros over
// 800+ columns) matches ≪ total SV non-zeros, which is where the speedup
// comes from.
//
// An svIndex is immutable after build and safe for concurrent readers; the
// per-call dot-product accumulator is caller scratch (see dotsPool).
type svIndex struct {
	nsv    int
	starts []int32   // postings for column c: posts[starts[c]:starts[c+1]]
	sv     []int32   // posting: support-vector ordinal
	val    []float64 // posting: the SV's value in that column
}

// buildSVIndex transposes the support vectors into column-major postings.
// Values are stored raw (not α-scaled): the kernel function is applied to
// the raw dot product per SV, and the α weighting happens in the same
// scalar loop.
func buildSVIndex(svs []sparse.Vector) *svIndex {
	maxIdx := -1
	total := 0
	for _, sv := range svs {
		total += len(sv.Idx)
		if n := len(sv.Idx); n > 0 && int(sv.Idx[n-1]) > maxIdx {
			maxIdx = int(sv.Idx[n-1])
		}
	}
	ix := &svIndex{
		nsv:    len(svs),
		starts: make([]int32, maxIdx+2),
		sv:     make([]int32, total),
		val:    make([]float64, total),
	}
	// Counting sort by column: count, prefix-sum, fill.
	for _, sv := range svs {
		for _, c := range sv.Idx {
			ix.starts[c+1]++
		}
	}
	for c := 1; c < len(ix.starts); c++ {
		ix.starts[c] += ix.starts[c-1]
	}
	fill := make([]int32, maxIdx+1)
	copy(fill, ix.starts[:maxIdx+1])
	for i, sv := range svs {
		for k, c := range sv.Idx {
			p := fill[c]
			ix.sv[p] = int32(i)
			ix.val[p] = sv.Val[k]
			fill[c] = p + 1
		}
	}
	return ix
}

// dotsInto computes x·svᵢ for every support vector in one pass over x's
// non-zeros, writing into buf (grown as needed) and returning it. Columns
// of x beyond the index range have no postings and are skipped.
func (ix *svIndex) dotsInto(x sparse.Vector, buf []float64) []float64 {
	buf, _ = ix.dotsCount(x, buf)
	return buf
}

// dotsCount is dotsInto that also returns the postings visited.
func (ix *svIndex) dotsCount(x sparse.Vector, buf []float64) ([]float64, int) {
	if cap(buf) < ix.nsv {
		buf = make([]float64, ix.nsv)
	} else {
		buf = buf[:ix.nsv]
		clear(buf)
	}
	lim := int32(len(ix.starts) - 1)
	visited := 0
	for k, c := range x.Idx {
		if c >= lim {
			break // x.Idx is sorted: everything after is out of range too
		}
		xv := x.Val[k]
		s, e := ix.starts[c], ix.starts[c+1]
		visited += int(e - s)
		for p := s; p < e; p++ {
			buf[ix.sv[p]] += xv * ix.val[p]
		}
	}
	return buf, visited
}

// dotsPool recycles dot-product accumulators across Decision calls, so the
// indexed path stays allocation-free in steady state without threading
// scratch through the public API. Scorer bypasses the pool with its own
// buffer (one Get/Put per window would still be cheap, but the scorer
// already owns per-window scratch).
var dotsPool = sync.Pool{New: func() any { return new([]float64) }}
