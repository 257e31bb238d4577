package svm

import (
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"

	"webtxprofile/internal/sparse"
)

// randomSVModel hand-assembles a structurally valid model with the
// given kernel. Validate is NOT called; callers decide whether to prepare
// the caches (and thereby whether the model takes the fused or the
// fallback path).
func randomSVModel(r *rand.Rand, algo Algorithm, k Kernel, nsv, dim, nnz int) *Model {
	m := &Model{Algo: algo, Kernel: k, Param: 0.1, TrainSize: nsv}
	for i := 0; i < nsv; i++ {
		m.SVs = append(m.SVs, randomSparse(r, dim, nnz))
		m.Coef = append(m.Coef, 0.01+r.Float64())
	}
	switch algo {
	case OCSVM:
		m.Rho = r.Float64()
	case SVDD:
		m.R2 = 1 + r.Float64()
		m.SumAA = r.Float64()
	}
	return m
}

// fusedPopulation builds a mixed validated population covering every
// kernel × algorithm combination, several times over.
func fusedPopulation(t *testing.T, r *rand.Rand, copies, dim int) []*Model {
	t.Helper()
	var models []*Model
	for c := 0; c < copies; c++ {
		for _, algo := range []Algorithm{OCSVM, SVDD} {
			for _, k := range kernelsUnderTest() {
				m := randomSVModel(r, algo, k, 1+r.Intn(60), dim, 5+r.Intn(20))
				if err := m.Validate(); err != nil {
					t.Fatal(err)
				}
				models = append(models, m)
			}
		}
	}
	return models
}

// TestFusedMatchesPerModelAllKernels is the tentpole equivalence property:
// on a mixed population of all four kernels and both algorithms, the fused
// scorer's Decisions must be bit-identical to each model scored alone, and
// the screened AcceptMask must agree exactly with per-model Accept (the
// screen is admissible — it may only skip work, never flip a mask bit).
func TestFusedMatchesPerModelAllKernels(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	models := fusedPopulation(t, r, 3, 600)
	sc := NewScorer(models)
	for trial := 0; trial < 60; trial++ {
		// Probes overrun the SV column range (dim 700 > 600) so the
		// postings-range break path is exercised too.
		x := randomSparse(r, 700, 3+r.Intn(30))
		dec := sc.Decisions(x)
		for i, m := range models {
			if want := m.Decision(x); dec[i] != want {
				t.Fatalf("trial %d model %d (%v/%v): fused %v vs solo %v",
					trial, i, m.Algo, m.Kernel, dec[i], want)
			}
		}
		mask := sc.AcceptMask(x)
		for i, m := range models {
			if mask[i] != m.Accept(x) {
				t.Fatalf("trial %d model %d (%v/%v): fused mask %v vs solo %v (dec %v)",
					trial, i, m.Algo, m.Kernel, mask[i], m.Accept(x), m.Decision(x))
			}
		}
	}
}

// TestFusedNearBoundaryMask stresses the screen right where it could go
// wrong: models whose decision value sits within ulps of the accept
// threshold. Scoring each model's own support vectors lands many decisions
// near (and exactly on) the boundary; the screened mask must still match
// per-model Accept bit for bit.
func TestFusedNearBoundaryMask(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	models := fusedPopulation(t, r, 2, 300)
	sc := NewScorer(models)
	for _, m := range models {
		for _, x := range m.SVs[:min(5, len(m.SVs))] {
			mask := sc.AcceptMask(x)
			for i, mm := range models {
				if mask[i] != mm.Accept(x) {
					t.Fatalf("model %d (%v/%v) on an SV probe: fused mask %v vs solo %v",
						i, mm.Algo, mm.Kernel, mask[i], mm.Accept(x))
				}
			}
		}
	}
}

// TestFusedEmptyWindowAndEmptyPopulation covers the degenerate inputs: a
// window with no non-zeros (all dots stay zero, every model takes the
// untouched fast path) and a scorer over zero models.
func TestFusedEmptyWindowAndEmptyPopulation(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	models := fusedPopulation(t, r, 1, 200)
	sc := NewScorer(models)
	var empty sparse.Vector
	dec := sc.Decisions(empty)
	for i, m := range models {
		if want := m.Decision(empty); dec[i] != want {
			t.Fatalf("model %d (%v/%v): empty-window fused %v vs solo %v",
				i, m.Algo, m.Kernel, dec[i], want)
		}
	}
	mask := sc.AcceptMask(empty)
	for i, m := range models {
		if mask[i] != m.Accept(empty) {
			t.Fatalf("model %d: empty-window mask mismatch", i)
		}
	}

	none := NewScorer(nil)
	if got := none.Decisions(randomSparse(r, 50, 5)); len(got) != 0 {
		t.Fatalf("empty population decisions = %v", got)
	}
	if got := none.AcceptMask(randomSparse(r, 50, 5)); len(got) != 0 {
		t.Fatalf("empty population mask = %v", got)
	}
}

// TestFusedUnpreparedFallback mixes unprepared (never Validated) models
// into the population: they must take the per-model fallback path and
// still agree with their own Decision, while prepared models stay fused.
func TestFusedUnpreparedFallback(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	models := fusedPopulation(t, r, 1, 300)
	raw := randomSVModel(r, OCSVM, RBF(0.5), 20, 300, 10) // no Validate
	rawLin := randomLinearModel(r, SVDD, 15, 300, 10)     // no Validate
	models = append(models, raw, rawLin)
	sc := NewScorer(models)

	prev := ReadKernelStats()
	for trial := 0; trial < 10; trial++ {
		x := randomSparse(r, 300, 12)
		dec := sc.Decisions(x)
		for i, m := range models {
			if want := m.Decision(x); dec[i] != want {
				t.Fatalf("model %d: fused %v vs solo %v", i, dec[i], want)
			}
		}
		mask := sc.AcceptMask(x)
		for i, m := range models {
			if mask[i] != m.Accept(x) {
				t.Fatalf("model %d: mask mismatch", i)
			}
		}
	}
	d := ReadKernelStats().Sub(prev)
	if d.FallbackDecisions != 2*2*10 { // 2 unprepared models × (Decisions+AcceptMask) × 10 trials
		t.Errorf("FallbackDecisions = %d, want 40", d.FallbackDecisions)
	}
	if want := uint64(2*10*len(models) - 2*2*10); d.FusedDecisions != want {
		t.Errorf("FusedDecisions = %d, want %d", d.FusedDecisions, want)
	}
}

// TestFusedSurvivesJSONRoundTrip rebuilds the population from its JSON
// serialization and checks the fused decisions are unchanged (Validate on
// unmarshal re-prepares the caches the index is built from).
func TestFusedSurvivesJSONRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(75))
	models := fusedPopulation(t, r, 1, 250)
	back := make([]*Model, len(models))
	for i, m := range models {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		back[i] = new(Model)
		if err := json.Unmarshal(data, back[i]); err != nil {
			t.Fatal(err)
		}
	}
	sc, sc2 := NewScorer(models), NewScorer(back)
	for trial := 0; trial < 20; trial++ {
		x := randomSparse(r, 250, 10)
		a, b := sc.Decisions(x), sc2.Decisions(x)
		for i := range models {
			if a[i] != b[i] {
				t.Fatalf("model %d: decision drift after round trip: %v vs %v", i, a[i], b[i])
			}
		}
	}
}

// TestFusedEnginesBitIdentical pins the contract between the two scoring
// engines, the fused index and per-model scoring: for the same models and
// probes, fused decisions are bit-identical to scoring each model alone,
// and the accept masks are identical. The layout partitions postings into
// (block, column) groups visited in one fixed order, so every accumulator
// receives the same terms in the same order with the same per-term
// rounding as the per-model index pass.
func TestFusedEnginesBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(80))
	models := fusedPopulation(t, r, 2, 400)
	sc := NewScorer(models)
	for trial := 0; trial < 40; trial++ {
		x := randomSparse(r, 450, 3+r.Intn(25))
		want := DecisionBatch(models, x, nil)
		got := sc.Decisions(x)
		for i := range models {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d model %d: fused %x diverges from per-model %x",
					trial, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		mask := sc.AcceptMask(x)
		for i, m := range models {
			if wantAcc := m.Accept(x); mask[i] != wantAcc {
				t.Fatalf("trial %d model %d: fused mask %v diverges from per-model %v",
					trial, i, mask[i], wantAcc)
			}
		}
	}
}

// TestFusedScreeningCounters checks the observability satellite: scoring
// through AcceptMask visits postings, screens out hopeless models, and
// counts fused decisions.
func TestFusedScreeningCounters(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	// RBF models over columns 0..199 with a solid rejection margin: probes
	// on disjoint columns have zero dots, so the untouched screen bound
	// exp(−γ·(snMin+nx)) · Σα − ρ is decisively negative.
	var models []*Model
	for i := 0; i < 16; i++ {
		m := randomSVModel(r, OCSVM, RBF(0.5), 10, 200, 8)
		m.Rho = 5 + r.Float64()
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	sc := NewScorer(models)

	prev := ReadKernelStats()
	far := randomSparse(r, 150, 10) // overlapping columns: postings visited
	sc.AcceptMask(far)
	d := ReadKernelStats().Sub(prev)
	if d.PostingsVisited == 0 {
		t.Error("PostingsVisited stayed zero across an overlapping window")
	}
	if d.ScreenedModels == 0 {
		t.Error("ScreenedModels stayed zero despite hopeless models")
	}
	if d.FusedDecisions != uint64(len(models)) {
		t.Errorf("FusedDecisions = %d, want %d", d.FusedDecisions, len(models))
	}

	// Decisions is exact and never screens.
	prev = ReadKernelStats()
	sc.Decisions(far)
	if d := ReadKernelStats().Sub(prev); d.ScreenedModels != 0 {
		t.Errorf("Decisions screened %d models; must be exact", d.ScreenedModels)
	}
}

// TestFusedScorerAllocs gates the fused hot path: once constructed, a
// scorer's AcceptMask and Decisions must not allocate (the name matches
// the CI allocation-gate step's -run Allocs filter).
func TestFusedScorerAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	models := fusedPopulation(t, r, 2, 300)
	sc := NewScorer(models)
	probes := make([]sparse.Vector, 8)
	for i := range probes {
		probes[i] = randomSparse(r, 300, 12)
	}
	i := 0
	if avg := testing.AllocsPerRun(50, func() {
		sc.AcceptMask(probes[i%len(probes)])
		i++
	}); avg != 0 {
		t.Errorf("AcceptMask allocates %.1f per window, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		sc.Decisions(probes[i%len(probes)])
		i++
	}); avg != 0 {
		t.Errorf("Decisions allocates %.1f per window, want 0", avg)
	}

	// A population the pre-accumulate screen mostly rejects, scored on
	// AcceptMask's per-survivor path (pinned, so every window takes it),
	// must not allocate either. Own support vectors as probes guarantee
	// a survivor per window.
	var calibrated []*Model
	for i := 0; i < 60; i++ {
		calibrated = append(calibrated, calibratedRBFModel(t, r, 300, 0.3, 1, i%2 == 0))
	}
	var svProbes []sparse.Vector
	for _, m := range calibrated[:8] {
		svProbes = append(svProbes, m.SVs[0])
	}
	withSurvivorShare(math.Inf(1), func() {
		sc := NewScorer(calibrated)
		i := 0
		if avg := testing.AllocsPerRun(50, func() {
			sc.AcceptMask(svProbes[i%len(svProbes)])
			i++
		}); avg != 0 {
			t.Errorf("sparse-path AcceptMask allocates %.1f per window, want 0", avg)
		}
		if len(sc.svDots) == 0 {
			t.Error("sparse path: no survivor was scored on the per-survivor path")
		}
	})
}

// TestFusedIndexSharedAcrossScorers is the shard-sharing property: many
// scorers attached to one index, scoring concurrently, each reproduce the
// per-model decisions (run under -race in CI).
func TestFusedIndexSharedAcrossScorers(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	models := fusedPopulation(t, r, 1, 300)
	ix := NewFusedIndex(models, FusedConfig{})
	if ix.NumModels() != len(models) {
		t.Fatalf("NumModels = %d", ix.NumModels())
	}
	probes := make([]sparse.Vector, 16)
	want := make([][]float64, len(probes))
	for i := range probes {
		probes[i] = randomSparse(r, 300, 10)
		want[i] = DecisionBatch(models, probes[i], nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := ix.NewScorer()
			for i, x := range probes {
				dec := sc.Decisions(x)
				for j := range dec {
					if dec[j] != want[i][j] {
						t.Errorf("probe %d model %d: %v vs %v", i, j, dec[j], want[i][j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
