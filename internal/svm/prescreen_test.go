package svm

import (
	"math"
	"math/rand"
	"testing"

	"webtxprofile/internal/sparse"
)

// calibratedRBFModel builds one synthetic RBF OC-SVM profile shaped like
// per-user training output: support vectors drawn from a 40-column "home"
// subset of dim, coefficients near the 1/(νn) bound, and ρ just under the
// weakest support vector's own kernel sum — every support vector accepted
// (several within ulps of the boundary), alien windows decisively
// rejected, so the pre-accumulate screen rejects most of a population of
// them. signed draws values of both signs, so the bound table's lo
// column matters; scale multiplies every value.
func calibratedRBFModel(tb testing.TB, r *rand.Rand, dim int, gamma, scale float64, signed bool) *Model {
	tb.Helper()
	home := r.Perm(dim)[:min(40, dim)]
	m := &Model{Algo: OCSVM, Kernel: RBF(gamma), Param: 0.1, TrainSize: 30}
	for s := 0; s < 30; s++ {
		dense := make(map[int]float64, 12)
		for len(dense) < 12 {
			v := scale * (0.1 + r.Float64())
			if signed && r.Intn(3) == 0 {
				v = -v
			}
			dense[home[r.Intn(len(home))]] = v
		}
		m.SVs = append(m.SVs, sparse.New(dense))
		m.Coef = append(m.Coef, 0.4+0.2*r.Float64())
	}
	if err := m.Validate(); err != nil {
		tb.Fatal(err)
	}
	minS := math.Inf(1)
	for _, sv := range m.SVs {
		minS = min(minS, m.Decision(sv)) // ρ = 0: the raw kernel sum
	}
	m.Rho = 0.9 * minS
	return m
}

// signedSparse is randomSparse with values of both signs.
func signedSparse(r *rand.Rand, dim, nnz int) sparse.Vector {
	dense := make(map[int]float64, nnz)
	for len(dense) < nnz {
		v := 0.1 + r.Float64()
		if r.Intn(2) == 0 {
			v = -v
		}
		dense[r.Intn(dim)] = v
	}
	return sparse.New(dense)
}

// withSurvivorShare runs f with AcceptMask's sparse-path crossover pinned
// to share (0 forces the fused pass, +Inf the per-survivor path on every
// window with support-vector postings).
func withSurvivorShare(share float64, f func()) {
	prev := sparseSurvivorShare
	sparseSurvivorShare = share
	defer func() { sparseSurvivorShare = prev }()
	f()
}

// preScreenProbes returns the probe windows of the differential tests:
// random windows (positive and signed, some reaching past the index's
// columns), every model's own support vectors — near-boundary probes, the
// weakest one sits ~10% above ρ and ties sit on it — and negated copies of
// a few support vectors.
func preScreenProbes(r *rand.Rand, models []*Model, dim int) []sparse.Vector {
	var probes []sparse.Vector
	for i := 0; i < 40; i++ {
		probes = append(probes, randomSparse(r, dim+dim/4, 5+r.Intn(25)))
		probes = append(probes, signedSparse(r, dim+dim/4, 5+r.Intn(25)))
	}
	for _, m := range models {
		probes = append(probes, m.SVs...)
		neg := sparse.Vector{Idx: m.SVs[0].Idx, Val: make([]float64, len(m.SVs[0].Val))}
		for k, v := range m.SVs[0].Val {
			neg.Val[k] = -v
		}
		probes = append(probes, neg)
	}
	return probes
}

// checkMasksMatch asserts that the fused AcceptMask equals per-model
// Accept on every probe, under the default crossover and with either path
// forced, and returns the pre-screen counters of the default run.
func checkMasksMatch(t *testing.T, models []*Model, probes []sparse.Vector) KernelStats {
	t.Helper()
	want := make([][]bool, len(probes))
	for p, x := range probes {
		want[p] = make([]bool, len(models))
		for i, m := range models {
			want[p][i] = m.Accept(x)
		}
	}
	sc := NewScorer(models)
	var stats KernelStats
	for _, share := range []float64{sparseSurvivorShare, 0, math.Inf(1)} {
		withSurvivorShare(share, func() {
			before := ReadKernelStats()
			for p, x := range probes {
				mask := sc.AcceptMask(x)
				for i := range models {
					if mask[i] != want[p][i] {
						t.Fatalf("share %v probe %d model %d: mask %v, per-model Accept %v (dec %v)",
							share, p, i, mask[i], want[p][i], models[i].Decision(x))
					}
				}
			}
			if share == sparseSurvivorShare {
				stats = ReadKernelStats().Sub(before)
			}
		})
	}
	return stats
}

// TestPreScreenMostlyRejected is the admissibility property on a
// population the pre-accumulate screen mostly rejects (calibrated RBF
// profiles, signed and unsigned, mixed with every other kernel and
// algorithm): masks must equal per-model Accept on both the per-survivor
// and the fused path, and the screen must actually
// have done the rejecting.
func TestPreScreenMostlyRejected(t *testing.T) {
	r := rand.New(rand.NewSource(90))
	const dim = 400
	var models []*Model
	for i := 0; i < 120; i++ {
		m := calibratedRBFModel(t, r, dim, 0.3, 1, i%2 == 0)
		if i%4 < 2 {
			m.Rho /= 0.9 // the weakest support vector sits on the boundary
		}
		models = append(models, m)
	}
	models = append(models, fusedPopulation(t, r, 1, dim)...)
	d := checkMasksMatch(t, models, preScreenProbes(r, models, dim))
	if d.PreScreened < d.FusedDecisions/2 {
		t.Errorf("pre-screen rejected %d of %d fused decisions; the population should be mostly rejected",
			d.PreScreened, d.FusedDecisions)
	}
	if d.PreScreened > d.ScreenedModels {
		t.Errorf("PreScreened %d exceeds ScreenedModels %d; pre-screened models are screened models",
			d.PreScreened, d.ScreenedModels)
	}
}

// TestPreScreenNothingRejected covers the other side of the crossover:
// permissive RBF profiles (ρ far below every kernel sum) carry a bound
// table, yet the screen can reject none of them, so AcceptMask stays on
// the fused pass — and must still match per-model Accept exactly.
func TestPreScreenNothingRejected(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	const dim = 300
	var models []*Model
	for i := 0; i < 40; i++ {
		m := calibratedRBFModel(t, r, dim, 0.3, 1, i%2 == 0)
		m.Rho *= 1e-6
		models = append(models, m)
	}
	d := checkMasksMatch(t, models, preScreenProbes(r, models, dim))
	if d.PreScreened != 0 {
		t.Errorf("pre-screen rejected %d permissive models", d.PreScreened)
	}
}

// TestPreScreenUnderflowRegression pins the log-domain threshold: with
// γ·‖sv‖² > 745 the linear-domain Σαᵢe^{−γ‖svᵢ‖²} underflows to 0, which
// would reject every window. Such a model must still accept each of its
// own support vectors through AcceptMask, while the screen keeps
// rejecting far windows before accumulating.
func TestPreScreenUnderflowRegression(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	const dim = 200
	var models []*Model
	for i := 0; i < 8; i++ {
		models = append(models, calibratedRBFModel(t, r, dim, 0.5, 30, i%2 == 0))
	}
	for _, m := range models {
		for i, sn := range m.svNorms {
			if m.Kernel.Gamma*sn <= 745 {
				t.Fatalf("fixture: γ·‖sv%d‖² = %g does not underflow", i, m.Kernel.Gamma*sn)
			}
		}
	}
	ix := NewFusedIndex(models, FusedConfig{})
	for mi, c := range ix.preCrit {
		if math.IsInf(c, 0) || math.IsNaN(c) {
			t.Fatalf("model %d: pre-screen threshold %v; the screen must stay armed", mi, c)
		}
	}
	probes := preScreenProbes(r, models, dim)
	for _, m := range models {
		for _, sv := range m.SVs {
			if !m.Accept(sv) {
				t.Fatal("fixture: a model rejects its own support vector")
			}
		}
	}
	checkMasksMatch(t, models, probes)

	sc := ix.NewScorer()
	before := ReadKernelStats()
	sc.AcceptMask(randomSparse(r, dim, 10))
	if d := ReadKernelStats().Sub(before); d.PreScreened == 0 {
		t.Error("no model pre-screened on a far window")
	}
}

// TestPreScreenBoundTable checks the table on a hand-built model: per
// column, hi is max(0, max value) and lo min(0, min value), and the
// footprint accounts for it.
func TestPreScreenBoundTable(t *testing.T) {
	m := &Model{Algo: OCSVM, Kernel: RBF(0.5), Rho: 0.1, SVs: []sparse.Vector{
		sparse.New(map[int]float64{0: 1, 2: -3}),
		sparse.New(map[int]float64{0: 2, 2: -1, 3: 4}),
	}, Coef: []float64{0.5, 0.5}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	ix := NewFusedIndex([]*Model{m}, FusedConfig{})
	want := map[int32][2]float64{0: {2, 0}, 2: {0, -3}, 3: {4, 0}}
	for c := int32(0); c+1 < int32(len(ix.ownStarts)); c++ {
		for p := ix.ownStarts[c]; p < ix.ownStarts[c+1]; p++ {
			w, ok := want[c]
			if !ok || ix.ownHi[p] != w[0] || ix.ownLo[p] != w[1] {
				t.Fatalf("column %d: (hi, lo) = (%v, %v), want %v", c, ix.ownHi[p], ix.ownLo[p], w)
			}
			delete(want, c)
		}
	}
	if len(want) != 0 {
		t.Fatalf("columns missing from the bound table: %v", want)
	}
	// ρ = 0 makes sCrit ≤ 0: the same postings, no bound table.
	plain := *m
	plain.Rho = 0
	noTable := NewFusedIndex([]*Model{&plain}, FusedConfig{})
	if noTable.preCrit != nil {
		t.Fatal("a model with sCrit <= 0 armed the pre-screen")
	}
	table := int64(len(ix.ownHi)+len(ix.ownLo)+len(ix.preCrit))*8 + int64(len(ix.svCount)+len(ix.colPosts))*4
	if got := ix.Footprint().IndexBytes - noTable.Footprint().IndexBytes; got != table {
		t.Errorf("IndexBytes grows by %d with the bound table, want %d", got, table)
	}
}
