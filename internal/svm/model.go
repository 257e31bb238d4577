package svm

import (
	"encoding/json"
	"fmt"
	"math"

	"webtxprofile/internal/sparse"
)

// Algorithm selects between the two one-class classifiers of Sect. II.
type Algorithm int

// Supported algorithms. The zero value is invalid.
const (
	OCSVM Algorithm = iota + 1
	SVDD
)

var algorithmNames = map[Algorithm]string{OCSVM: "oc-svm", SVDD: "svdd"}

// String returns the algorithm name as used in the paper's tables.
func (a Algorithm) String() string {
	if s, ok := algorithmNames[a]; ok {
		return s
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// ParseAlgorithm converts an algorithm name back into an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for a, name := range algorithmNames {
		if s == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("svm: unknown algorithm %q", s)
}

// Model is a trained one-class classifier: the support vectors with their
// dual coefficients and the decision threshold. The decision functions are
// Eq. 6 (OC-SVM) and Eq. 12 (SVDD) of the paper; Accept reports f(x) ≥ 0.
type Model struct {
	Algo   Algorithm       `json:"algorithm"`
	Kernel Kernel          `json:"kernel"`
	SVs    []sparse.Vector `json:"support_vectors"`
	Coef   []float64       `json:"coefficients"`
	// Rho is the OC-SVM offset ρ (Eq. 6); unused for SVDD.
	Rho float64 `json:"rho,omitempty"`
	// R2 is the squared SVDD radius (Eq. 11); unused for OC-SVM.
	R2 float64 `json:"r2,omitempty"`
	// SumAA is ΣΣ αᵢαⱼk(xᵢ,xⱼ) over support vectors, precomputed for the
	// SVDD decision function (Eq. 12); unused for OC-SVM.
	SumAA float64 `json:"sum_aa,omitempty"`
	// Param records the training parameter: ν for OC-SVM, C for SVDD.
	Param float64 `json:"param"`
	// TrainSize is the number of training windows the model was fit on.
	TrainSize int `json:"train_size"`
	// Converged records whether SMO reached the KKT tolerance.
	Converged bool `json:"converged"`
	// Iterations is the SMO iteration count.
	Iterations int `json:"iterations"`

	// svNorms caches ‖sv‖² for RBF decisions, w caches the dense weight
	// vector Σᵢ αᵢxᵢ that collapses linear-kernel decisions into a single
	// sparse-dense dot product, and idx holds the inverted support-vector
	// index that batches all SV dot products for the non-linear kernels.
	// Train, UnmarshalJSON and Validate populate them (see prepare);
	// Decision never writes them, so models are always safe for concurrent
	// Decision calls — hand-assembled models that skip Validate just take
	// the slower uncached path.
	svNorms []float64
	w       []float64
	idx     *svIndex
}

// prepare (re)computes the derived caches: the support-vector norms plus,
// for linear kernels, the dense weight vector w = Σᵢ αᵢxᵢ and, for the
// other kernels, the inverted support-vector index (every kernel factors
// through x·y, see svIndex). It is called from Train, UnmarshalJSON and
// Validate — never from Decision, which keeps concurrent decisions
// race-free on any model.
func (m *Model) prepare() {
	m.svNorms = norms(m.SVs)
	if m.Kernel.Kind == KernelLinear {
		m.w = weightVector(m.SVs, m.Coef)
		m.idx = nil
	} else {
		m.w = nil
		m.idx = buildSVIndex(m.SVs)
	}
}

// weightVector folds the support vectors into the dense vector Σᵢ αᵢxᵢ.
func weightVector(svs []sparse.Vector, coef []float64) []float64 {
	maxIdx := -1
	for _, sv := range svs {
		if n := len(sv.Idx); n > 0 && int(sv.Idx[n-1]) > maxIdx {
			maxIdx = int(sv.Idx[n-1])
		}
	}
	w := make([]float64, maxIdx+1)
	for i, sv := range svs {
		a := coef[i]
		for k, idx := range sv.Idx {
			w[idx] += a * sv.Val[k]
		}
	}
	return w
}

// dotDense computes w·x for a dense w and sparse x in O(nnz(x)). Columns
// of x beyond len(w) have zero weight and are skipped.
func dotDense(w []float64, x sparse.Vector) float64 {
	var sum float64
	for k, i := range x.Idx {
		if int(i) < len(w) {
			sum += w[i] * x.Val[k]
		}
	}
	return sum
}

// acceptTol absorbs floating-point dust at the decision boundary: training
// points that sit exactly on the separating surface (duplicated windows in
// particular) evaluate to ±few ulps around zero because Σα carries rounding
// error. The tolerance scales with the magnitude of the threshold terms and
// is ~9 orders of magnitude below any meaningful rejection margin.
func (m *Model) acceptTol() float64 {
	return 1e-9 * (1 + math.Abs(m.Rho) + math.Abs(m.R2) + math.Abs(m.SumAA))
}

// NumSVs returns the support vector count.
func (m *Model) NumSVs() int { return len(m.SVs) }

// Decision evaluates the signed decision value f(x): non-negative means
// the window is accepted as belonging to the profiled user.
//
//	OC-SVM: f(x) = Σᵢ αᵢ k(xᵢ, x) − ρ                            (Eq. 6)
//	SVDD:   f(x) = R² − ΣΣ αᵢαⱼk(xᵢ,xⱼ) + 2Σᵢ αᵢk(xᵢ,x) − k(x,x) (Eq. 12)
//
// Every kernel of the family factors through the dot product x·y, so no
// prepared model pays the per-support-vector merge join: linear kernels
// collapse the sum to w·x with the precomputed weight vector w = Σᵢ αᵢxᵢ
// (O(nnz(x)) regardless of SV count), and polynomial/RBF/sigmoid kernels
// batch all SV dot products through the inverted support-vector index in
// one pass over x's non-zeros before a scalar kernel loop. Models from
// Train, UnmarshalJSON or Validate have these caches populated;
// hand-assembled models that skip Validate fall back to the
// per-support-vector sum of DecisionGeneric.
func (m *Model) Decision(x sparse.Vector) float64 {
	return m.decision(x, x.NormSq())
}

// decision is Decision with ‖x‖² precomputed, so batch scorers pay for it
// once per window rather than once per model.
func (m *Model) decision(x sparse.Vector, nx float64) float64 {
	if m.idx != nil {
		bufp := dotsPool.Get().(*[]float64)
		v, buf := m.decisionIndexed(x, nx, *bufp)
		*bufp = buf
		dotsPool.Put(bufp)
		return v
	}
	v, _ := m.decisionScratch(x, nx, nil)
	return v
}

// decisionScratch is the scratch-threading decision kernel behind both
// Decision and the batch Scorer: dots is the caller-owned dot-product
// accumulator for the indexed path (grown as needed and handed back for
// reuse). The dispatch order mirrors prepare: linear models carry w, every
// other prepared model carries idx, and unprepared hand-assembled models
// fall back to the per-SV merge join of decisionGeneric.
func (m *Model) decisionScratch(x sparse.Vector, nx float64, dots []float64) (float64, []float64) {
	if m.w != nil && m.Kernel.Kind == KernelLinear {
		wx := dotDense(m.w, x)
		switch m.Algo {
		case OCSVM:
			return wx - m.Rho, dots
		case SVDD:
			return m.R2 - m.SumAA + 2*wx - nx, dots
		default:
			panic("svm: Decision on invalid model")
		}
	}
	if m.idx != nil {
		return m.decisionIndexed(x, nx, dots)
	}
	return m.decisionGeneric(x, nx), dots
}

// decisionIndexed evaluates f(x) through the inverted support-vector
// index: one pass over x's non-zeros accumulates every SV dot product,
// then the kernel-specialized scalar loop the fused epilogue shares
// (fusedKernelSum) folds in αᵢ·k(xᵢ,x). dots is caller scratch, returned
// (possibly regrown) for reuse.
func (m *Model) decisionIndexed(x sparse.Vector, nx float64, dots []float64) (float64, []float64) {
	dots = m.idx.dotsInto(x, dots)
	sum := fusedKernelSum(m.Kernel, m.Coef, m.svNorms, dots, nx)
	switch m.Algo {
	case OCSVM:
		return sum - m.Rho, dots
	case SVDD:
		return m.R2 - m.SumAA + 2*sum - m.Kernel.evalSelf(nx), dots
	default:
		panic("svm: Decision on invalid model")
	}
}

// DecisionGeneric evaluates f(x) with the per-support-vector kernel sum,
// bypassing the linear-kernel weight-vector fast path. It is the reference
// implementation the fast path is verified against (and benchmarked
// against); both agree within floating-point accumulation error (≤ 1e-9
// at realistic magnitudes).
func (m *Model) DecisionGeneric(x sparse.Vector) float64 {
	return m.decisionGeneric(x, x.NormSq())
}

func (m *Model) decisionGeneric(x sparse.Vector, nx float64) float64 {
	sn := m.svNorms
	if sn == nil {
		// Unprepared hand-assembled model: compute the norms locally
		// instead of lazily caching them, so concurrent Decision calls
		// never race. Call Validate once to cache them (and enable the
		// linear fast path).
		sn = norms(m.SVs)
	}
	var sum float64
	for i := range m.SVs {
		sum += m.Coef[i] * m.Kernel.evalNorms(m.SVs[i], x, sn[i], nx)
	}
	switch m.Algo {
	case OCSVM:
		return sum - m.Rho
	case SVDD:
		return m.R2 - m.SumAA + 2*sum - m.Kernel.evalSelf(nx)
	default:
		panic("svm: Decision on invalid model")
	}
}

// Accept reports whether the model accepts x (f(x) ≥ 0, up to
// floating-point tolerance at the boundary).
func (m *Model) Accept(x sparse.Vector) bool {
	return m.acceptsValue(m.Decision(x))
}

// acceptsValue applies the acceptance rule to an already-computed decision
// value, so batch scorers share one rule with Accept.
func (m *Model) acceptsValue(dec float64) bool {
	return dec >= -m.acceptTol()
}

// AcceptanceRatio returns the fraction of xs accepted by the model — the
// building block of the paper's ACC_self and ACC_other metrics.
func (m *Model) AcceptanceRatio(xs []sparse.Vector) float64 {
	if len(xs) == 0 {
		return 0
	}
	accepted := 0
	for _, x := range xs {
		if m.Accept(x) {
			accepted++
		}
	}
	return float64(accepted) / float64(len(xs))
}

// Validate checks structural integrity after deserialization.
func (m *Model) Validate() error {
	switch m.Algo {
	case OCSVM, SVDD:
	default:
		return fmt.Errorf("svm: invalid algorithm %d", int(m.Algo))
	}
	if err := m.Kernel.Validate(); err != nil {
		return err
	}
	if len(m.SVs) == 0 {
		return fmt.Errorf("svm: model has no support vectors")
	}
	if len(m.SVs) != len(m.Coef) {
		return fmt.Errorf("svm: %d support vectors but %d coefficients", len(m.SVs), len(m.Coef))
	}
	for i := range m.SVs {
		if err := m.SVs[i].Validate(); err != nil {
			return fmt.Errorf("svm: support vector %d: %w", i, err)
		}
		if m.Coef[i] <= 0 {
			return fmt.Errorf("svm: non-positive coefficient %g at %d", m.Coef[i], i)
		}
	}
	// A structurally valid model is worth caching for: populate the norm
	// cache and, for linear kernels, the weight-vector fast path. Doing it
	// here (rather than lazily in Decision) keeps Decision free of writes
	// and therefore safe for concurrent use on any model.
	m.prepare()
	return nil
}

// MarshalJSON serializes the model.
func (m *Model) MarshalJSON() ([]byte, error) {
	type alias Model // strip methods to avoid recursion
	return json.Marshal((*alias)(m))
}

// UnmarshalJSON restores a model and validates it; Validate repopulates
// the derived caches (support-vector norms, linear weight vector), so the
// fast path survives JSON round trips. On any decode or validation error
// the receiver is left untouched.
func (m *Model) UnmarshalJSON(data []byte) error {
	type alias Model
	var a alias
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	tmp := Model(a)
	if err := tmp.Validate(); err != nil {
		return err
	}
	*m = tmp
	return nil
}
