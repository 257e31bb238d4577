package svm

import (
	"fmt"
	"math"
	"strings"

	"webtxprofile/internal/sparse"
)

// How each model of a FusedIndex is scored (see NewFusedIndex).
const (
	fusedLinear   uint8 = iota // prepared linear model: weight-vector postings
	fusedSV                    // prepared non-linear model: support-vector postings
	fusedFallback              // unprepared model: per-model generic decision
)

// screenSlack is the relative floating-point safety margin of the decision
// screen: a model is only screened out when its upper bound clears the
// accept tolerance by this fraction of the bound's magnitude, so the few
// ulps of rounding between the bound computation and the exact kernel loop
// can never flip an accept into a screened reject.
const screenSlack = 1e-9

// critSlack deflates the precomputed screening thresholds (sCrit, d2Crit,
// preCrit) by a hair, so the handful of roundings in the threshold algebra
// itself — a division, a log — can never over-screen. It is three orders
// of magnitude above those roundings and three below screenSlack, so the
// screen loses no measurable power.
const critSlack = 1e-12

// preScreenEps is the per-rounding relative error the pre-accumulate
// screen's margin charges (twice the float64 unit roundoff, for headroom;
// see preScreenRBF).
const preScreenEps = 0x1p-52

// sparseSurvivorShare is the survivor crossover of AcceptMask: when the
// models left standing by the pre-accumulate screen own fewer support
// vectors than this share of both the index's support vectors and the
// window's support-vector postings, scoring each survivor through its own
// svIndex is cheaper than the population-wide fused pass. The fused pass
// costs the window's postings; the survivors cost their own support
// vectors and their share of those postings, walked one model at a time
// (slower per posting than the blocked pass). Read off the survivor sweep
// of BenchmarkPopulationDecisions. A variable only so tests can pin
// either path.
var sparseSurvivorShare = 0.1

// KernelMode selects which scoring kernels a FusedIndex runs.
type KernelMode uint8

const (
	// KernelsAuto resolves to the lane-blocked kernels (block8/block16):
	// straight-line unrolled multiply-add over full lanes. This is the
	// default and is portable Go — the lane shapes exist so the work maps
	// 1:1 onto packed FMA registers (and a future build-tagged asm kernel
	// can consume the same layout directly).
	KernelsAuto KernelMode = iota
	// KernelsPortable runs simple per-posting reference loops over the
	// same blocked layout. Float64 results are bit-identical to the lane
	// kernels (per-accumulator term order is the same); it exists as the
	// plain-code baseline for differential testing, benchmarking the lane
	// shapes' win, and as an escape hatch.
	KernelsPortable
)

// FusedConfig selects how a FusedIndex stores and accumulates postings.
type FusedConfig struct {
	// Float32 stores the postings values in float32 and runs the
	// per-window dot-product accumulators in float32 too, roughly halving
	// the index and scratch memory and the accumulation bandwidth. The
	// scalar kernel loop still runs in float64 on the converted dots.
	// Decisions then match the exact float64 path only within
	// Float32DecisionBound (instead of bit-identically), so accepts may
	// differ for windows within that bound of a model's boundary. The
	// zero value — exact float64 — is the default everywhere.
	Float32 bool

	// Kernels picks the scoring kernels (lane-blocked vs portable); both
	// run over the same blocked postings layout and produce bit-identical
	// accumulators. The zero value (KernelsAuto) is the lane kernels.
	Kernels KernelMode
}

// Lane widths of the blocked postings layout: one lane of values is one
// 64-byte cache line (8×float64 or 16×float32), and every (block, column)
// postings group is zero-padded to a whole number of lanes so the
// accumulate kernels are pure straight-line lane loops with no remainder
// handling.
const (
	laneWidth64 = 8
	laneWidth32 = 16
)

// maxBlockGroups bounds the dense per-(block, column) offset table of a
// postings family. When accumulators × columns would exceed it, the block
// span doubles until it fits — huge populations degrade gracefully to
// larger blocks instead of blowing up the table.
const maxBlockGroups = 4 << 20

// minGroupPostings is the target average (block, column) group size.
// Blocking trades the column-contiguous layout's long sequential postings
// runs for write locality, and the trade only pays if the runs stay long
// enough for the hardware prefetcher — a few KiB, not a few cache lines.
// The block span grows until groups average at least this many postings
// (measured, not guessed: the builder knows the family's density), so a
// dense population gets small L2-resident accumulator spans with ~3 KiB
// runs, and a sparse one degrades smoothly toward the unblocked layout
// where scattered writes are rare anyway.
const minGroupPostings = 512

// blockedPostings is one postings family of a FusedIndex (linear weights
// or support vectors) in the feature-blocked, lane-padded layout.
//
// Accumulator ordinals are split into fixed power-of-two blocks
// (block(g) = g >> shift, sized so a block's accumulator span stays
// L1-resident), and postings are grouped by (block, column): group
// (b, c) occupies ord/val[starts[b*ncols+c] : starts[b*ncols+c+1]],
// zero-padded to full lanes with postings that target the spare ordinal
// (val 0, so they accumulate exact zeros into a cell nobody reads).
// Within a group, postings keep ascending ordinal order.
//
// The accumulate kernels walk blocks in the outer loop and the window's
// columns in the inner loop, so all scattered writes of a block land in
// one small accumulator span. Bit-identity with the unblocked column-major
// walk holds because blocks partition ordinals exactly: every term of a
// given accumulator lives in exactly one block and is therefore still
// received in window-column order, and per (column, accumulator) there is
// at most one posting — so each accumulator's term order is unchanged.
type blockedPostings struct {
	ncols   int32   // column span (max posting column + 1)
	nblocks int32   // ordinal blocks
	shift   uint    // accumulator ordinal → block index
	starts  []int32 // len nblocks*ncols+1: lane-padded group offsets
	ord     []int32 // accumulator ordinal per posting (spare for pads)
	val     []float64
	val32   []float32
	real    int // postings before padding
	pad     int // zero-filled lane-padding postings
}

// pickBlockShift returns the ordinal→block shift: starting from a 16 KiB
// accumulator span (2048 float64 / 4096 float32), the block doubles until
// the group table fits maxBlockGroups and the family's npostings average
// at least minGroupPostings per group.
func pickBlockShift(nacc, ncols, npostings, elemSize int) uint {
	shift := uint(11)
	if elemSize == 4 {
		shift = 12
	}
	for {
		nblocks := (nacc + (1 << shift) - 1) >> shift
		if nblocks <= 1 {
			return shift
		}
		if nblocks*ncols <= maxBlockGroups && npostings >= minGroupPostings*nblocks*ncols {
			return shift
		}
		shift++
	}
}

// buildBlocked converts raw column-sorted postings (column c holds
// rawOrd/rawVal[rawStarts[c]:rawStarts[c+1]], ordinals ascending within a
// column) into the blocked, lane-padded layout over nacc accumulators
// (the last one being the spare pad target).
func buildBlocked(rawStarts, rawOrd []int32, rawVal []float64, nacc int, f32 bool) blockedPostings {
	ncols := len(rawStarts) - 1
	if ncols <= 0 || len(rawOrd) == 0 {
		return blockedPostings{}
	}
	lane, elem := laneWidth64, 8
	if f32 {
		lane, elem = laneWidth32, 4
	}
	shift := pickBlockShift(nacc, ncols, len(rawOrd), elem)
	nblocks := (nacc + (1 << shift) - 1) >> shift
	ngroups := nblocks * ncols

	starts := make([]int32, ngroups+1)
	for c := 0; c < ncols; c++ {
		for p := rawStarts[c]; p < rawStarts[c+1]; p++ {
			b := int(rawOrd[p]) >> shift
			starts[b*ncols+c+1]++
		}
	}
	pad := 0
	for g := 0; g < ngroups; g++ {
		cnt := starts[g+1]
		if rem := cnt % int32(lane); rem != 0 {
			pad += lane - int(rem)
			cnt += int32(lane) - rem
		}
		starts[g+1] = starts[g] + cnt
	}

	pb := blockedPostings{
		ncols:   int32(ncols),
		nblocks: int32(nblocks),
		shift:   shift,
		starts:  starts,
		ord:     make([]int32, starts[ngroups]),
		real:    len(rawOrd),
		pad:     pad,
	}
	if f32 {
		pb.val32 = make([]float32, starts[ngroups])
	} else {
		pb.val = make([]float64, starts[ngroups])
	}
	fill := make([]int32, ngroups)
	copy(fill, starts[:ngroups])
	for c := 0; c < ncols; c++ {
		for p := rawStarts[c]; p < rawStarts[c+1]; p++ {
			b := int(rawOrd[p]) >> shift
			g := b*ncols + c
			pos := fill[g]
			pb.ord[pos] = rawOrd[p]
			if f32 {
				pb.val32[pos] = float32(rawVal[p])
			} else {
				pb.val[pos] = rawVal[p]
			}
			fill[g] = pos + 1
		}
	}
	spare := int32(nacc - 1)
	for g := 0; g < ngroups; g++ {
		for pos := fill[g]; pos < starts[g+1]; pos++ {
			pb.ord[pos] = spare // values are already zero
		}
	}
	return pb
}

// bytes returns the resident size of the family's slices.
func (pb *blockedPostings) bytes() int64 {
	return int64(len(pb.starts))*4 + int64(len(pb.ord))*4 +
		int64(len(pb.val))*8 + int64(len(pb.val32))*4
}

// FusedIndex merges every model's decision structure into one population-
// wide inverted index, so a single pass over a window's non-zeros
// accumulates the inputs of *all* models' decision functions at once —
// instead of re-walking the window once per model as the per-model
// svIndex/weight-vector path does. Two postings families share the pass:
//
//   - Linear postings, feature → (model, weight): each prepared linear
//     model contributes the non-zeros of its dense weight vector
//     w = Σᵢ αᵢxᵢ, and the pass accumulates w·x per model directly.
//   - Support-vector postings, feature → (global SV ordinal, value): each
//     prepared non-linear model's support vectors occupy a contiguous
//     range of global ordinals (svBase), and the pass accumulates xᵢ·x
//     per support vector.
//
// Both families use the feature-blocked, lane-padded layout of
// blockedPostings, and the float64 accumulators stay bit-identical to the
// unblocked per-model svIndex.dotsInto pass: every accumulator still
// receives its terms in window-column order (see blockedPostings). Models
// that are not prepared (hand-assembled without Validate) take the
// per-model fallback path.
//
// The index also caches, per model, the decision-screen inputs of
// Scorer.AcceptMask: Σαᵢ, the min/max support-vector norms (every αᵢ > 0
// by Validate, which makes Σαᵢ·max k an admissible bound on the kernel
// sum — see screenReject), and for RBF models the precomputed screen
// thresholds sCrit/d2Crit that make the first screening levels entirely
// transcendental-free.
//
// In float64 mode, RBF models with sCrit > 0 are additionally screened
// before any support-vector posting is accumulated (the MaxScore idea of
// inverted-index retrieval). Per (column, owning model) the index stores
// hi = max(0, maxᵢ svᵢ[c]) and lo = min(0, minᵢ svᵢ[c]), so for a window
// x every support-vector dot satisfies
//
//	x·svᵢ ≤ U = Σ_c x_c·(x_c > 0 ? hi : lo)
//
// (each term bounds x_c·svᵢ[c] from above, and is itself ≥ 0). Hence
// ‖svᵢ − x‖² ≥ ‖svᵢ‖² + ‖x‖² − 2U for every i, and the kernel sum is at
// most exp(−γ(‖x‖² − 2U))·Σαᵢe^{−γ‖svᵢ‖²}. That is below sCrit — the
// model cannot accept — exactly when ‖x‖² − 2U > preCrit with
// preCrit = (ln Σαᵢe^{−γ‖svᵢ‖²} − ln sCrit)/γ, precomputed in the log
// domain (the linear-domain sum underflows to 0 once γ‖sv‖² > ~745). The
// screen charges a rounding margin on top (preScreenRBF), so the mask
// stays exact. Float32 indexes skip it and keep the plain fused pass: an
// exact-arithmetic bound does not bound float32-rounded accumulators (the
// reason screenSV skips its level-1 norm bound there too).
//
// A FusedIndex is immutable after build and safe for concurrent readers:
// Monitor shards share one index and attach per-shard Scorer scratch.
type FusedIndex struct {
	models   []*Model
	cfg      FusedConfig
	portable bool
	vector   bool // KernelsAuto resolved to the AVX-512 packed kernels
	kind     []uint8

	lin blockedPostings // linear-weight postings
	sv  blockedPostings // support-vector postings

	// Column → owning models with at least one SV posting in that column
	// (deduped, ascending): ownIDs[ownStarts[c]:ownStarts[c+1]]. This is
	// the touch-marking pass, decoupled from accumulation so the lane
	// kernels stay pure multiply-add. ownHi/ownLo (float64 indexes with
	// at least one pre-screenable model; nil otherwise) run parallel to
	// ownIDs: the owner's max(0, max SV value) and min(0, min SV value)
	// in that column — the pre-accumulate screen's bound table.
	ownStarts []int32
	ownIDs    []int32
	ownHi     []float64
	ownLo     []float64
	// colPosts[c] is column c's support-vector posting count (alongside
	// the bound table only): the pre-screen walk sums it into the fused
	// pass's cost for the window.
	colPosts []int32

	// Per-model global SV ordinal ranges: model mi owns [svBase[mi],
	// svBase[mi+1]) (empty for linear/fallback models).
	svBase []int32
	// Per global ordinal: dual coefficient, ‖sv‖², and — for RBF models —
	// γ·‖sv‖²/h, the precomputed table-index contribution of the support
	// vector to the screening bound (see fusedRBFSumBound64: folding γ and
	// the table scale into the operand array at build time leaves one fused
	// multiply-add per support vector in the bound's inner loop).
	coef     []float64
	svNorms  []float64
	snGammaH []float64

	// Per-model screening caches: Σαᵢ, min/max ‖svᵢ‖ and min ‖svᵢ‖²
	// (zero for linear and fallback models, which are never screened).
	sumAlpha []float64
	minNorm  []float64
	maxNorm  []float64
	snMin    []float64

	// Per-model precomputed RBF screen thresholds (see rbfScreenCrit):
	// a kernel-sum upper bound below sCrit, or a squared-distance lower
	// bound above d2Crit, proves rejection. Zero/±Inf for non-RBF models.
	sCrit  []float64
	d2Crit []float64
	// gammaH[mi] is γ/h for RBF models and 0 otherwise — both the screen's
	// RBF discriminant and its table-index scale, kept dense so the hot
	// screening path never dereferences the Model itself (ten thousand
	// pointer chases per window would out-cost the bounds they gate).
	gammaH []float64
	// preCrit[mi] is the pre-accumulate screen threshold on ‖x‖² − 2U
	// (rbfPreCrit; +Inf for models the screen never rejects) and
	// svCount[mi] the model's support-vector count (0 for linear and
	// fallback models). Both are nil when the index has no bound table.
	preCrit []float64
	svCount []int32

	footprint IndexFootprint
}

// IndexFootprint is the memory accounting of a built FusedIndex: what the
// blocked layout costs and how much of it is lane padding.
type IndexFootprint struct {
	Models       int
	SVs          int
	Postings     int   // real postings stored (linear weights + SV entries)
	LanePadWaste int   // zero-filled pad slots added to fill out lanes
	IndexBytes   int64 // resident bytes: postings, offsets, per-model caches, pre-screen bound table
}

// String renders the footprint for startup logs.
func (f IndexFootprint) String() string {
	padPct := 0.0
	if n := f.Postings + f.LanePadWaste; n > 0 {
		padPct = 100 * float64(f.LanePadWaste) / float64(n)
	}
	return fmt.Sprintf("models=%d svs=%d postings=%d pad=%d (%.1f%%) bytes=%d",
		f.Models, f.SVs, f.Postings, f.LanePadWaste, padPct, f.IndexBytes)
}

// Footprint returns the index's memory accounting.
func (ix *FusedIndex) Footprint() IndexFootprint { return ix.footprint }

// Engine describes the resolved scoring kernels, e.g.
// "block8/float64+avx512 (cpu: avx2,avx512f,fma,sse2)" or
// "portable/float32".
func (ix *FusedIndex) Engine() string {
	var b strings.Builder
	switch {
	case ix.portable:
		b.WriteString("portable")
	case ix.cfg.Float32:
		b.WriteString("block16")
	default:
		b.WriteString("block8")
	}
	if ix.cfg.Float32 {
		b.WriteString("/float32")
	} else {
		b.WriteString("/float64")
	}
	if ix.vector {
		b.WriteString("+avx512")
	}
	if !ix.portable && len(cpuFeatureList) > 0 {
		b.WriteString(" (cpu: ")
		b.WriteString(strings.Join(cpuFeatureList, ","))
		b.WriteString(")")
	}
	return b.String()
}

// cpuFeatureList holds the detected SIMD capabilities of this CPU
// (detectCPUFeatures; empty off amd64). It is both observability and the
// dispatch input: KernelsAuto resolves to the AVX-512 packed kernels when
// "avx512f" is present, and to the portable-Go lane kernels otherwise.
var cpuFeatureList = detectCPUFeatures()

// NewFusedIndex builds the fused population index over models. The models
// are shared, not copied; prepared models (Train, UnmarshalJSON, Validate)
// take the fused path, unprepared ones are recorded for per-model fallback.
func NewFusedIndex(models []*Model, cfg FusedConfig) *FusedIndex {
	n := len(models)
	ix := &FusedIndex{
		models:   models,
		cfg:      cfg,
		portable: cfg.Kernels == KernelsPortable,
		vector:   cfg.Kernels == KernelsAuto && !disablePackedKernels && asmKernelsSupported(),
		kind:     make([]uint8, n),
		svBase:   make([]int32, n+1),
		sumAlpha: make([]float64, n),
		minNorm:  make([]float64, n),
		maxNorm:  make([]float64, n),
		snMin:    make([]float64, n),
		sCrit:    make([]float64, n),
		d2Crit:   make([]float64, n),
		gammaH:   make([]float64, n),
	}

	// Classify each model and measure both postings families.
	maxLinCol, maxSVCol := -1, -1
	totalLin, totalSV, numSVs := 0, 0, 0
	for mi, m := range models {
		switch {
		case m == nil:
			ix.kind[mi] = fusedFallback // fails at decision time, like the per-model path
		case m.w != nil && m.Kernel.Kind == KernelLinear:
			ix.kind[mi] = fusedLinear
			for c, wv := range m.w {
				if wv != 0 {
					totalLin++
					if c > maxLinCol {
						maxLinCol = c
					}
				}
			}
		case m.idx != nil:
			ix.kind[mi] = fusedSV
			numSVs += len(m.SVs)
			for _, sv := range m.SVs {
				totalSV += len(sv.Idx)
				if n := len(sv.Idx); n > 0 && int(sv.Idx[n-1]) > maxSVCol {
					maxSVCol = int(sv.Idx[n-1])
				}
			}
		default:
			ix.kind[mi] = fusedFallback
		}
		ix.svBase[mi+1] = int32(numSVs)
	}

	// Linear postings: counting sort by column, models in index order, so
	// postings within a column are sorted by model.
	linStarts := make([]int32, maxLinCol+2)
	linOrd := make([]int32, totalLin)
	linVal := make([]float64, totalLin)
	for mi, m := range models {
		if ix.kind[mi] != fusedLinear {
			continue
		}
		for c, wv := range m.w {
			if wv != 0 {
				linStarts[c+1]++
			}
		}
	}
	for c := 1; c < len(linStarts); c++ {
		linStarts[c] += linStarts[c-1]
	}
	linFill := make([]int32, maxLinCol+1)
	copy(linFill, linStarts[:maxLinCol+1])
	for mi, m := range models {
		if ix.kind[mi] != fusedLinear {
			continue
		}
		for c, wv := range m.w {
			if wv == 0 {
				continue
			}
			p := linFill[c]
			linOrd[p] = int32(mi)
			linVal[p] = wv
			linFill[c] = p + 1
		}
	}

	// SV postings: same counting sort over global ordinals, plus the
	// per-ordinal caches (owner, coefficient, norm) and the per-model
	// screening bounds.
	svStarts := make([]int32, maxSVCol+2)
	svOrd := make([]int32, totalSV)
	svVal := make([]float64, totalSV)
	svOwner := make([]int32, numSVs)
	ix.coef = make([]float64, numSVs)
	ix.svNorms = make([]float64, numSVs)
	ix.snGammaH = make([]float64, numSVs)
	for mi, m := range models {
		if ix.kind[mi] != fusedSV {
			continue
		}
		for _, sv := range m.SVs {
			for _, c := range sv.Idx {
				svStarts[c+1]++
			}
		}
	}
	for c := 1; c < len(svStarts); c++ {
		svStarts[c] += svStarts[c-1]
	}
	svFill := make([]int32, maxSVCol+1)
	copy(svFill, svStarts[:maxSVCol+1])
	for mi, m := range models {
		if ix.kind[mi] != fusedSV {
			continue
		}
		base := ix.svBase[mi]
		sumA, minN, maxN := 0.0, math.Inf(1), 0.0
		for si, sv := range m.SVs {
			g := base + int32(si)
			svOwner[g] = int32(mi)
			ix.coef[g] = m.Coef[si]
			ix.svNorms[g] = m.svNorms[si]
			sumA += m.Coef[si]
			if m.svNorms[si] < minN {
				minN = m.svNorms[si]
			}
			if m.svNorms[si] > maxN {
				maxN = m.svNorms[si]
			}
			for k, c := range sv.Idx {
				p := svFill[c]
				svOrd[p] = g
				svVal[p] = sv.Val[k]
				svFill[c] = p + 1
			}
		}
		ix.sumAlpha[mi] = sumA
		ix.snMin[mi] = minN
		ix.minNorm[mi] = math.Sqrt(minN)
		ix.maxNorm[mi] = math.Sqrt(maxN)
		if m.Kernel.Kind == KernelRBF {
			ix.sCrit[mi], ix.d2Crit[mi] = rbfScreenCrit(m, sumA)
			if ix.sCrit[mi] > 0 && !cfg.Float32 {
				if ix.preCrit == nil {
					ix.preCrit = make([]float64, n)
					for i := range ix.preCrit {
						ix.preCrit[i] = math.Inf(1)
					}
				}
				ix.preCrit[mi] = rbfPreCrit(m, ix.sCrit[mi])
			}
			gh := m.Kernel.Gamma * rbfExpInvH
			ix.gammaH[mi] = gh
			for si := range m.SVs {
				g := base + int32(si)
				ix.snGammaH[g] = gh * ix.svNorms[g]
			}
		}
	}

	// Column → owning models, deduped: within a column the raw postings
	// are in ascending global-ordinal order, so owners are non-decreasing
	// and dedup is a run-length pass — which also folds each run's values
	// into the owner's bound-table hi/lo when the index pre-screens.
	if maxSVCol >= 0 {
		bound := ix.preCrit != nil
		ix.ownStarts = make([]int32, maxSVCol+2)
		var ids []int32
		var his, los []float64
		for c := 0; c <= maxSVCol; c++ {
			last := int32(-1)
			for p := svStarts[c]; p < svStarts[c+1]; p++ {
				w, v := svOwner[svOrd[p]], svVal[p]
				if w != last {
					ids = append(ids, w)
					last = w
					if bound {
						his = append(his, max(0, v))
						los = append(los, min(0, v))
					}
				} else if bound {
					his[len(his)-1] = max(his[len(his)-1], v)
					los[len(los)-1] = min(los[len(los)-1], v)
				}
			}
			ix.ownStarts[c+1] = int32(len(ids))
		}
		ix.ownIDs, ix.ownHi, ix.ownLo = ids, his, los
	}
	if ix.preCrit != nil {
		ix.svCount = make([]int32, n)
		for mi := range ix.svCount {
			ix.svCount[mi] = ix.svBase[mi+1] - ix.svBase[mi]
		}
		ix.colPosts = make([]int32, maxSVCol+1)
		for c := range ix.colPosts {
			ix.colPosts[c] = svStarts[c+1] - svStarts[c]
		}
	}

	// Convert both families to the blocked, lane-padded layout. The
	// accumulator counts include one spare slot (ordinal n / numSVs) that
	// the pad postings target.
	ix.lin = buildBlocked(linStarts, linOrd, linVal, n+1, cfg.Float32)
	ix.sv = buildBlocked(svStarts, svOrd, svVal, numSVs+1, cfg.Float32)

	ix.footprint = IndexFootprint{
		Models:       n,
		SVs:          numSVs,
		Postings:     ix.lin.real + ix.sv.real,
		LanePadWaste: ix.lin.pad + ix.sv.pad,
		IndexBytes: ix.lin.bytes() + ix.sv.bytes() +
			int64(len(ix.ownStarts))*4 + int64(len(ix.ownIDs))*4 +
			int64(len(ix.ownHi)+len(ix.ownLo))*8 +
			int64(len(ix.kind)) + int64(len(ix.svBase)+len(ix.svCount)+len(ix.colPosts))*4 +
			int64(len(ix.coef)+len(ix.svNorms)+len(ix.snGammaH))*8 +
			int64(len(ix.sumAlpha)+len(ix.minNorm)+len(ix.maxNorm)+len(ix.snMin)+len(ix.sCrit)+len(ix.d2Crit)+len(ix.gammaH)+len(ix.preCrit))*8,
	}
	recordIndexBuild(ix.footprint)
	return ix
}

// rbfScreenCrit precomputes the RBF decision screen's thresholds for one
// model, so the screening levels compare against constants instead of
// re-deriving the bound per window.
//
// sCrit inverts rejectWithSum: for RBF, any upper bound s on the kernel
// sum satisfies s ≥ 0 (k ∈ (0,1], αᵢ > 0) and evalSelf is the constant 1,
// so "ub < −(tol + screenSlack·(1+s))" is, algebraically, "s < sCrit"
// with sCrit = (ρ − tol − slack)/(1 + slack) for OC-SVM and
// (1 + SumAA − R² − tol − slack)/(2 + slack) for SVDD. d2Crit then inverts
// the true kernel bound Σα·exp(−γd²) < sCrit: whenever every squared
// distance provably exceeds d2Crit = ln(Σα/sCrit)/γ, the model cannot
// accept — without evaluating a single exp at scoring time.
//
// Admissibility under rounding: sCrit is deflated and d2Crit inflated by
// critSlack, three orders of magnitude beyond the ulp-level rounding of
// this algebra (and of math.Exp/math.Log), while the screenSlack margin
// baked into sCrit already dwarfs the exact loop's own rounding. A
// non-positive sCrit can never screen (bounds are ≥ 0), so d2Crit is +Inf.
func rbfScreenCrit(m *Model, sumA float64) (sCrit, d2Crit float64) {
	tol := m.acceptTol()
	switch m.Algo {
	case OCSVM:
		sCrit = (m.Rho - tol - screenSlack) / (1 + screenSlack)
	case SVDD:
		sCrit = (1 + m.SumAA - m.R2 - tol - screenSlack) / (2 + screenSlack)
	}
	if sCrit <= 0 {
		return sCrit, math.Inf(1)
	}
	sCrit *= 1 - critSlack
	d2Crit = math.Log(sumA/sCrit) / m.Kernel.Gamma
	d2Crit += critSlack * (1 + math.Abs(d2Crit))
	return sCrit, d2Crit
}

// rbfPreCrit precomputes the pre-accumulate screen threshold of an RBF
// model with sCrit > 0: the kernel sum is below sCrit whenever
// ‖x‖² − 2U > (ln Σαᵢe^{−γ‖svᵢ‖²} − ln sCrit)/γ (see FusedIndex). The sum
// is taken in the log domain — a streaming logsumexp over ln αᵢ − γ‖svᵢ‖² —
// because the linear-domain sum underflows to 0 once γ‖sv‖² exceeds ~745,
// which would make the threshold −∞ and reject every window.
//
// Admissibility under rounding: the log-ratio is inflated by critSlack
// relative to the magnitudes it was computed from, plus the logsumexp's
// own O(#SVs) relative rounding, and the quotient by critSlack once more —
// every inflation loosens the screen. A non-finite result (only reachable
// with overflowing inputs) disables the screen for the model.
func rbfPreCrit(m *Model, sCrit float64) float64 {
	g := m.Kernel.Gamma
	mx, sum, mag := math.Inf(-1), 0.0, 0.0
	for i, a := range m.Coef {
		la := math.Log(a)
		t := la - g*m.svNorms[i]
		if t > mx {
			sum = sum*math.Exp(mx-t) + 1
			mx = t
		} else {
			sum += math.Exp(t - mx)
		}
		mag = max(mag, math.Abs(la)+math.Abs(g*m.svNorms[i]))
	}
	lc := math.Log(sCrit)
	ratio := mx + math.Log(sum) - lc
	ratio += critSlack*(1+mag+math.Abs(lc)) + 4*float64(len(m.Coef)+2)*preScreenEps
	crit := ratio / g
	crit += critSlack * (1 + math.Abs(crit))
	if math.IsNaN(crit) || math.IsInf(crit, 0) {
		return math.Inf(1)
	}
	return crit
}

// NumModels returns the number of models fused into the index.
func (ix *FusedIndex) NumModels() int { return len(ix.models) }

// numSVs returns the total support-vector count across fused models.
func (ix *FusedIndex) numSVs() int { return int(ix.svBase[len(ix.models)]) }

// markOwners stamps every model owning at least one support-vector posting
// in one of x's columns with the scorer's epoch — the same touch condition
// the accumulate pass used to establish inline, decoupled so the lane
// kernels stay pure multiply-add. Columns carry deduped owner lists, so
// this visits ~postings/nnz-per-(model,column) entries, not every posting.
//
// When ub is non-nil (an index with a bound table) the same walk also
// accumulates each owner's pre-screen dot bound U into ub[owner] — the
// window value times the owner's hi in that column, or its lo for a
// negative value, every term ≥ 0 — and returns the owner entries visited
// and the support-vector postings in x's columns. The scatter index is
// data-dependent, so this loop keeps its bounds checks (like the
// accumulate kernels in fusedlanes.go).
func (ix *FusedIndex) markOwners(x sparse.Vector, marks []uint64, epoch uint64, ub []float64) (owners, postings int) {
	lim := int32(len(ix.ownStarts)) - 1
	for k, c := range x.Idx {
		if c >= lim {
			break // x.Idx is sorted: everything after is out of range too
		}
		s, e := ix.ownStarts[c], ix.ownStarts[c+1]
		if ub == nil {
			for p := s; p < e; p++ {
				marks[ix.ownIDs[p]] = epoch
			}
			continue
		}
		owners += int(e - s)
		postings += int(ix.colPosts[c])
		xv, bound := x.Val[k], ix.ownHi
		if xv < 0 {
			bound = ix.ownLo
		}
		for p := s; p < e; p++ {
			w := ix.ownIDs[p]
			marks[w] = epoch
			ub[w] += xv * bound[p]
		}
	}
	return owners, postings
}

// fusedLinearDecision folds an accumulated weight dot product into the
// decision value, mirroring the linear branch of Model.decisionScratch.
func fusedLinearDecision(m *Model, wx, nx float64) float64 {
	switch m.Algo {
	case OCSVM:
		return wx - m.Rho
	case SVDD:
		return m.R2 - m.SumAA + 2*wx - nx
	default:
		panic("svm: Decision on invalid model")
	}
}

// fusedSVDecision evaluates model mi's exact decision value from its
// per-SV dot products (dots: the model's ordinal range of the fused
// accumulators, or its own svIndex dots) — the same scalar kernel loop as
// Model.decisionIndexed. For T = float64 the result is bit-identical to
// the per-model path.
func fusedSVDecision[T float32 | float64](ix *FusedIndex, mi int, dots []T, nx float64) float64 {
	m := ix.models[mi]
	lo, hi := ix.svBase[mi], ix.svBase[mi+1]
	sum := fusedKernelSum(m.Kernel, ix.coef[lo:hi], ix.svNorms[lo:hi], dots, nx)
	switch m.Algo {
	case OCSVM:
		return sum - m.Rho
	case SVDD:
		return m.R2 - m.SumAA + 2*sum - m.Kernel.evalSelf(nx)
	default:
		panic("svm: Decision on invalid model")
	}
}

// kernelMax bounds k(xᵢ,x) from above given that every support-vector dot
// product lies in [dlo, dhi] and (for RBF) every squared distance is at
// least d2lo. Admissibility per kernel: polynomial b^d is monotone in b
// for odd d and convex for even d (max at an interval endpoint either
// way); RBF exp(−γd²) is decreasing in d²; tanh is increasing.
func kernelMax(k Kernel, dlo, dhi, d2lo float64) float64 {
	switch k.Kind {
	case KernelPoly:
		hi := ipow(k.Gamma*dhi+k.Coef0, k.Degree)
		if k.Degree%2 == 0 {
			if lo := ipow(k.Gamma*dlo+k.Coef0, k.Degree); lo > hi {
				hi = lo
			}
		}
		return hi
	case KernelRBF:
		if d2lo < 0 {
			d2lo = 0
		}
		return math.Exp(-k.Gamma * d2lo)
	case KernelSigmoid:
		return math.Tanh(k.Gamma*dhi + k.Coef0)
	case KernelLinear:
		return dhi // linear models take the weight path; kept for completeness
	default:
		return math.Inf(1)
	}
}

// rejectWithSum reports whether a proven upper bound s on the kernel sum
// Σαᵢk(xᵢ,x), substituted into the decision function, falls below the
// accept tolerance by more than the floating-point safety margin. A
// false return says nothing; the exact loop decides.
func rejectWithSum(m *Model, s, nx, tol float64) bool {
	var ub float64
	switch m.Algo {
	case OCSVM:
		ub = s - m.Rho
	case SVDD:
		ub = m.R2 - m.SumAA + 2*s - m.Kernel.evalSelf(nx)
	default:
		return false
	}
	return ub < -(tol + screenSlack*(1+math.Abs(s)))
}

// screenReject reports whether the model provably cannot accept x: the
// decision value's upper bound — Σαᵢ·max k, admissible because Validate
// guarantees every αᵢ > 0 — rules the window out.
func screenReject(m *Model, sumA, dlo, dhi, d2lo, nx, tol float64) bool {
	return rejectWithSum(m, sumA*kernelMax(m.Kernel, dlo, dhi, d2lo), nx, tol)
}

// screenSV runs the layered decision screen for non-linear model mi.
//
// RBF models compare squared-distance lower bounds against the
// precomputed d2Crit, transcendental-free at every level:
//
//	Level 0 (untouched): every dot is an exact zero, so d² ≥ snMin + nx.
//	Level 1 (O(1)): ‖xᵢ−x‖ ≥ |‖xᵢ‖−‖x‖| via the cached norm extrema —
//	  no accumulated state read at all.
//	Level 2 (O(#SVs), division-free): the per-support-vector tabulated
//	  exp upper bound on the kernel sum (fusedRBFSumBound) against
//	  sCrit — this is what separates a model with one near-ish support
//	  vector from a model that genuinely accepts: an interval bound
//	  would charge every vector at the closest one's distance, while
//	  this sum charges each at its own.
//
// Polynomial and sigmoid models keep the generic interval-bound layers
// (their SVDD self-term depends on nx, so no threshold precompute): the
// O(1) Cauchy–Schwarz dot interval, then the accumulated dots' actual
// range. In float32 mode the level-1 norm product does not bound the
// float32-rounded accumulators, so touched models go straight to the
// dots-reading levels, whose bounds are computed from the very values the
// exact loop would consume.
//
// dots is the model's float64 dot range — its slice of the fused
// accumulators, or the per-model dots of AcceptMask's survivor path;
// float32 indexes pass nil and read their own accumulators.
func (s *Scorer) screenSV(mi int, touched bool, nx, normX float64, dots []float64) bool {
	ix := s.ix
	lo, hi := ix.svBase[mi], ix.svBase[mi+1]
	if gh := ix.gammaH[mi]; gh > 0 { // RBF, without touching the Model
		d2Crit := ix.d2Crit[mi]
		if !touched {
			return ix.snMin[mi]+nx > d2Crit
		}
		if !ix.cfg.Float32 {
			var gap float64
			if normX > ix.maxNorm[mi] {
				gap = normX - ix.maxNorm[mi]
			} else if normX < ix.minNorm[mi] {
				gap = ix.minNorm[mi] - normX
			}
			if gap*gap > d2Crit {
				return true
			}
		}
		b0, slope := gh*nx, 2*gh
		var sb float64
		switch {
		case ix.cfg.Float32 && s.portable:
			sb = fusedRBFSumBoundPortable(ix.coef[lo:hi], ix.snGammaH[lo:hi], s.dots32[lo:hi], b0, slope)
		case ix.cfg.Float32 && s.vector:
			sb = fusedRBFSumBoundVec32(ix.coef[lo:hi], ix.snGammaH[lo:hi], s.dots32[lo:hi], b0, slope)
		case ix.cfg.Float32:
			sb = fusedRBFSumBound32(ix.coef[lo:hi], ix.snGammaH[lo:hi], s.dots32[lo:hi], b0, slope)
		case s.portable:
			sb = fusedRBFSumBoundPortable(ix.coef[lo:hi], ix.snGammaH[lo:hi], dots, b0, slope)
		case s.vector:
			sb = fusedRBFSumBoundVec64(ix.coef[lo:hi], ix.snGammaH[lo:hi], dots, b0, slope)
		default:
			sb = fusedRBFSumBound64(ix.coef[lo:hi], ix.snGammaH[lo:hi], dots, b0, slope)
		}
		return sb < ix.sCrit[mi]
	}

	m := ix.models[mi]
	sumA := ix.sumAlpha[mi]
	tol := m.acceptTol()
	if !touched {
		return screenReject(m, sumA, 0, 0, ix.snMin[mi]+nx, nx, tol)
	}
	if !ix.cfg.Float32 {
		mn := ix.maxNorm[mi] * normX
		if screenReject(m, sumA, -mn, mn, 0, nx, tol) {
			return true
		}
	}
	var dlo, dhi float64
	if ix.cfg.Float32 {
		dlo, dhi = fusedDotRange(s.dots32[lo:hi])
	} else {
		dlo, dhi = fusedDotRange(dots)
	}
	return screenReject(m, sumA, dlo, dhi, 0, nx, tol)
}

// Float32DecisionBound returns the documented accuracy contract of the
// float32 fused mode for model m on window x: the float32-mode decision
// value differs from the exact float64 value by at most this much. The
// bound combines the worst-case float32 storage/accumulation error of a
// dot product (≈ (nnz+2)·2⁻²⁴·‖x‖·max‖svᵢ‖, with generous constant) with
// the kernel's Lipschitz constant in the dot product (RBF: 2γ since
// k ≤ 1; sigmoid: γ since tanh' ≤ 1; polynomial: dγ·B^(d−1) on the
// attainable |γ·d+c₀| ≤ B interval; linear: 1) and Σαᵢ. It is
// deliberately loose — a cheap certificate, not a tight estimate.
func Float32DecisionBound(m *Model, x sparse.Vector) float64 {
	const eps32 = 1.0 / (1 << 24)
	nnz := float64(len(x.Idx) + 2)
	nx := x.NormSq()
	normX := math.Sqrt(nx)
	floor := 1e-12 * (1 + math.Abs(m.Rho) + math.Abs(m.R2) + math.Abs(m.SumAA))

	if m.Kernel.Kind == KernelLinear && m.w != nil {
		var nw float64
		for _, wv := range m.w {
			nw += wv * wv
		}
		err := 8 * nnz * eps32 * (1 + normX*math.Sqrt(nw))
		if m.Algo == SVDD {
			err *= 2
		}
		return err + floor
	}

	sn := m.svNorms
	if sn == nil {
		sn = norms(m.SVs)
	}
	maxSN, sumA := 0.0, 0.0
	for i := range sn {
		if sn[i] > maxSN {
			maxSN = sn[i]
		}
		sumA += m.Coef[i]
	}
	maxDot := normX * math.Sqrt(maxSN)
	errDot := 8 * nnz * eps32 * (1 + maxDot)

	var lip float64
	k := m.Kernel
	switch k.Kind {
	case KernelRBF:
		lip = 2 * k.Gamma
	case KernelSigmoid:
		lip = k.Gamma
	case KernelPoly:
		b := k.Gamma*maxDot + math.Abs(k.Coef0) + 1
		lip = float64(k.Degree) * k.Gamma * ipow(b, k.Degree-1)
	default:
		lip = 1
	}
	err := sumA * lip * errDot
	if m.Algo == SVDD {
		err *= 2
	}
	return err + floor
}
