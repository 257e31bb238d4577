package svm

import (
	"math"
	"slices"

	"webtxprofile/internal/sparse"
)

// Scorer evaluates one window against a fixed set of models — the inner
// loop of streaming identification, where every completed window is scored
// against every user profile. It runs on the fused population index: one
// pass over the window's non-zeros accumulates every model's weight dot
// product and every support vector's dot product at once (FusedIndex, in
// the feature-blocked layout), then a per-model epilogue folds the
// accumulators into decision values. Decisions is exact — bit-identical to
// the per-model path — while AcceptMask additionally screens: models whose
// decision upper bound proves they cannot accept skip the scalar kernel
// loop entirely (the screen is admissible, so the mask is still exact).
// AcceptMask first runs the pre-accumulate screen (see FusedIndex), and
// when the surviving models are few it skips the support-vector pass
// altogether and scores each survivor through its own per-model index.
//
// The index is immutable and shared (every Monitor shard scores through
// the same FusedIndex); the Scorer only owns the per-window scratch —
// accumulators, touch marks, and output buffers. Scratch accumulators are
// cleared by re-walking the window's postings after scoring, so a window
// costs O(matched postings + models), never O(population's support
// vectors).
//
// A Scorer is not safe for concurrent use; create one per goroutine with
// FusedIndex.NewScorer (they are cheap — the index is shared, read-only).
type Scorer struct {
	ix *FusedIndex

	dec []float64
	acc []bool

	// Accumulators, all-zero between windows. wx[mi] collects the linear
	// models' w·x; dots[g] collects global ordinal g's sv·x.
	wx   []float64
	dots []float64

	// marks[mi] == epoch iff a support-vector posting of model mi shares
	// a column with the current window (FusedIndex.markOwners) — untouched
	// models hold exact zero dots and take O(1) decisions and screen
	// bounds.
	marks []uint64
	epoch uint64

	// Pre-accumulate screen scratch (indexes with a bound table only):
	// ub[mi] accumulates model mi's dot bound U (all-zero between
	// windows), live[mi] is false iff the screen rejected mi, and svDots
	// holds one survivor's dot products on the per-model path.
	ub     []float64
	live   []bool
	svDots []float64
}

// NewScorer creates a scorer over the given models with its own private
// fused index. Loops that need many scorers over the same models (one per
// shard or goroutine) should build one FusedIndex and call its NewScorer
// method instead, sharing the index.
func NewScorer(models []*Model) *Scorer {
	return NewFusedIndex(models, FusedConfig{}).NewScorer()
}

// NewScorer attaches per-window scratch to the shared index. Scorers are
// independent: any number may score concurrently against one index.
func (ix *FusedIndex) NewScorer() *Scorer {
	n := len(ix.models)
	s := &Scorer{
		ix:    ix,
		dec:   make([]float64, 0, n),
		acc:   make([]bool, n),
		wx:    make([]float64, n),
		dots:  make([]float64, ix.numSVs()),
		marks: make([]uint64, n),
	}
	if ix.preCrit != nil {
		s.ub = make([]float64, n)
		s.live = make([]bool, n)
		s.svDots = make([]float64, 0, slices.Max(ix.svCount))
	}
	return s
}

// Len returns the number of models scored per window.
func (s *Scorer) Len() int { return len(s.ix.models) }

// Model returns the i-th model, in the order passed to NewScorer.
func (s *Scorer) Model(i int) *Model { return s.ix.models[i] }

// Decisions evaluates every model's decision function on x — exactly; no
// screening, so the values are bit-identical to scoring each model alone. The returned slice is scratch owned by the scorer,
// valid until the next call.
func (s *Scorer) Decisions(x sparse.Vector) []float64 {
	ix := s.ix
	nx := x.NormSq()
	lin := ix.lin.accumulate(x, s.wx)
	sv := ix.sv.accumulate(x, s.dots)
	fused, fallback := 0, 0
	s.dec = s.dec[:0]
	for mi, m := range ix.models {
		var d float64
		switch ix.kind[mi] {
		case fusedLinear:
			d = fusedLinearDecision(m, s.wx[mi], nx)
			fused++
		case fusedSV:
			d = fusedSVDecision(ix, mi, s.dots[ix.svBase[mi]:ix.svBase[mi+1]], nx)
			fused++
		default:
			d, _ = m.decisionScratch(x, nx, nil)
			fallback++
		}
		s.dec = append(s.dec, d)
	}
	ix.lin.reset(x, s.wx, lin)
	ix.sv.reset(x, s.dots, sv)
	recordFusedWindow(lin+sv, 0, 0, fused, fallback)
	return s.dec
}

// AcceptMask reports, per model, whether x is accepted (the Accept rule,
// including the boundary tolerance). This is the screened fused path,
// which never changes the mask, since every bound is admissible:
//
//  1. The pre-accumulate screen (FusedIndex) bounds every
//     RBF model's kernel sum from one walk over the window's columns of
//     the bound table, before any support-vector posting is touched.
//  2. When the models it leaves standing own less than
//     sparseSurvivorShare of the support vectors, the fused
//     support-vector pass is skipped: each survivor walks its own svIndex
//     for its dots — bit-identical to its fused accumulators, so the same
//     screens and epilogue follow — and only the linear family
//     accumulates.
//  3. Otherwise the fused pass runs; models the pre-screen rejected skip
//     screenSV, the rest go through it, and those whose decision upper
//     bound proves rejection skip the scalar kernel loop.
//
// The returned slice is scratch owned by the scorer, valid until the next
// call.
func (s *Scorer) AcceptMask(x sparse.Vector) []bool {
	ix := s.ix
	nx := x.NormSq()
	normX := math.Sqrt(nx)
	s.epoch++
	// visited counts the bound-table entries the pre-screen walks; plain
	// touch-marking (no bound table) is not counted.
	visited, postings := ix.markOwners(x, s.marks, s.epoch, s.ub)
	preScreened, perModel := 0, false
	if s.ub != nil {
		slack := 2 * float64(len(x.Idx)+4) * preScreenEps
		var liveSVs int
		preScreened, liveSVs = preScreenRBF(s.ub, ix.preCrit, ix.maxNorm, ix.svCount, s.live, nx, normX, slack)
		perModel = float64(liveSVs) < sparseSurvivorShare*float64(min(postings, ix.numSVs()))
	}
	lin, sv := ix.lin.accumulate(x, s.wx), 0
	if !perModel {
		sv = ix.sv.accumulate(x, s.dots)
	}
	visited += lin + sv
	screened, fused, fallback := preScreened, 0, 0
	for mi, m := range ix.models {
		switch ix.kind[mi] {
		case fusedLinear:
			s.acc[mi] = m.acceptsValue(fusedLinearDecision(m, s.wx[mi], nx))
			fused++
		case fusedSV:
			fused++
			if s.live != nil && !s.live[mi] {
				s.acc[mi] = false
				continue
			}
			dots := s.dots[ix.svBase[mi]:ix.svBase[mi+1]]
			if perModel {
				var n int
				s.svDots, n = m.idx.dotsCount(x, s.svDots)
				dots, visited = s.svDots, visited+n
			}
			if s.screenSV(mi, s.marks[mi] == s.epoch, nx, normX, dots) {
				s.acc[mi] = false
				screened++
				continue
			}
			s.acc[mi] = m.acceptsValue(fusedSVDecision(ix, mi, dots, nx))
		default:
			d, _ := m.decisionScratch(x, nx, nil)
			s.acc[mi] = m.acceptsValue(d)
			fallback++
		}
	}
	ix.lin.reset(x, s.wx, lin)
	if !perModel {
		ix.sv.reset(x, s.dots, sv)
	}
	recordFusedWindow(visited, screened, preScreened, fused, fallback)
	return s.acc
}

// DecisionBatch evaluates every model's decision function on x, appending
// to out (which may be nil; pass out[:0] to reuse a buffer across calls).
// This is the pre-fused per-model path — each model walks the window
// through its own index — kept as the reference baseline the fused engine
// is verified and benchmarked against. Loops that score many windows
// against the same models should prefer a Scorer.
func DecisionBatch(models []*Model, x sparse.Vector, out []float64) []float64 {
	nx := x.NormSq()
	bufp := dotsPool.Get().(*[]float64)
	dots := *bufp
	for _, m := range models {
		var d float64
		d, dots = m.decisionScratch(x, nx, dots)
		out = append(out, d)
	}
	*bufp = dots
	dotsPool.Put(bufp)
	return out
}
