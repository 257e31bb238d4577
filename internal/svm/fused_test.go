package svm

import (
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"

	"webtxprofile/internal/sparse"
)

// randomKernelModel hand-assembles a structurally valid model with the
// given kernel. Validate is NOT called; callers decide whether to prepare
// the caches (and thereby whether the model takes the fused or the
// fallback path).
func randomKernelModel(r *rand.Rand, algo Algorithm, k Kernel, nsv, dim, nnz int) *Model {
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
				m := randomKernelModel(r, algo, k, 1+r.Intn(60), dim, 5+r.Intn(20))
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
	raw := randomKernelModel(r, OCSVM, RBF(0.5), 20, 300, 10) // no Validate
	rawLin := randomLinearModel(r, SVDD, 15, 300, 10)         // no Validate
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

// TestFusedFloat32WithinBound validates the float32 mode's accuracy
// contract: every float32-mode decision stays within Float32DecisionBound
// of the exact float64 decision, and the accept masks agree except for
// windows whose exact decision sits within the bound of the boundary.
func TestFusedFloat32WithinBound(t *testing.T) {
	r := rand.New(rand.NewSource(76))
	models := fusedPopulation(t, r, 2, 400)
	exact := NewScorer(models)
	approx := NewFusedIndex(models, FusedConfig{Float32: true}).NewScorer()
	checked := 0
	for trial := 0; trial < 40; trial++ {
		x := randomSparse(r, 400, 5+r.Intn(20))
		d64 := append([]float64(nil), exact.Decisions(x)...)
		d32 := approx.Decisions(x)
		m32 := append([]bool(nil), approx.AcceptMask(x)...)
		for i, m := range models {
			bound := Float32DecisionBound(m, x)
			if diff := math.Abs(d32[i] - d64[i]); diff > bound {
				t.Fatalf("model %d (%v/%v): float32 drift %g exceeds bound %g",
					i, m.Algo, m.Kernel, diff, bound)
			}
			if math.Abs(d64[i]) > bound+m.acceptTol() {
				if m32[i] != m.acceptsValue(d64[i]) {
					t.Fatalf("model %d: float32 mask flipped outside the bound (dec %v, bound %g)",
						i, d64[i], bound)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no decision landed outside the float32 bound; test is vacuous")
	}
}

// forceLaneKernels runs f with KernelsAuto resolving to the Go lane
// kernels even where the packed AVX-512 engine is available, restoring
// the real resolution afterwards.
func forceLaneKernels(t *testing.T, f func()) {
	t.Helper()
	prev := disablePackedKernels
	disablePackedKernels = true
	defer func() { disablePackedKernels = prev }()
	f()
}

// TestFusedEnginesBitIdentical pins the engine-equivalence contract all
// three kernel sets share: for the same models and probes, the packed
// AVX-512 engine (where available), the Go lane engine, and the portable
// per-posting engine produce bit-identical decisions — float64 AND
// float32 — and identical accept masks. The layout partitions postings
// into (block, column) groups visited in one fixed order, so every engine
// feeds each accumulator the same terms in the same order with the same
// per-term rounding (the packed kernels deliberately split the multiply
// and the add; see fusedasm_amd64.go).
func TestFusedEnginesBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(80))
	models := fusedPopulation(t, r, 2, 400)
	for _, f32 := range []bool{false, true} {
		cfg := FusedConfig{Float32: f32}
		auto := NewFusedIndex(models, cfg).NewScorer()
		var lanes *Scorer
		forceLaneKernels(t, func() {
			lanes = NewFusedIndex(models, cfg).NewScorer()
		})
		cfg.Kernels = KernelsPortable
		portable := NewFusedIndex(models, cfg).NewScorer()
		for trial := 0; trial < 40; trial++ {
			x := randomSparse(r, 450, 3+r.Intn(25))
			dAuto := append([]float64(nil), auto.Decisions(x)...)
			dLanes := append([]float64(nil), lanes.Decisions(x)...)
			dPort := portable.Decisions(x)
			for i := range models {
				if math.Float64bits(dAuto[i]) != math.Float64bits(dPort[i]) ||
					math.Float64bits(dLanes[i]) != math.Float64bits(dPort[i]) {
					t.Fatalf("float32=%v trial %d model %d: engines disagree: auto %x lanes %x portable %x",
						f32, trial, i, math.Float64bits(dAuto[i]), math.Float64bits(dLanes[i]), math.Float64bits(dPort[i]))
				}
			}
			mAuto := append([]bool(nil), auto.AcceptMask(x)...)
			mLanes := append([]bool(nil), lanes.AcceptMask(x)...)
			mPort := portable.AcceptMask(x)
			for i := range models {
				if mAuto[i] != mPort[i] || mLanes[i] != mPort[i] {
					t.Fatalf("float32=%v trial %d model %d: masks disagree: auto %v lanes %v portable %v",
						f32, trial, i, mAuto[i], mLanes[i], mPort[i])
				}
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
		m := randomKernelModel(r, OCSVM, RBF(0.5), 10, 200, 8)
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
// the CI allocation-gate step's -run Allocs filter), across every
// precision × engine combination — the packed kernels are //go:noescape,
// so handing slices' element pointers to them must not force the scratch
// to the heap per call.
func TestFusedScorerAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	models := fusedPopulation(t, r, 2, 300)
	cases := map[string]FusedConfig{
		"float64":          {},
		"float32":          {Float32: true},
		"float64-portable": {Kernels: KernelsPortable},
		"float32-portable": {Float32: true, Kernels: KernelsPortable},
	}
	scorers := map[string]*Scorer{}
	for name, cfg := range cases {
		scorers[name] = NewFusedIndex(models, cfg).NewScorer()
	}
	forceLaneKernels(t, func() {
		scorers["float64-lanes"] = NewFusedIndex(models, FusedConfig{}).NewScorer()
		scorers["float32-lanes"] = NewFusedIndex(models, FusedConfig{Float32: true}).NewScorer()
	})
	probes := make([]sparse.Vector, 8)
	for i := range probes {
		probes[i] = randomSparse(r, 300, 12)
	}
	for name, sc := range scorers {
		i := 0
		if avg := testing.AllocsPerRun(50, func() {
			sc.AcceptMask(probes[i%len(probes)])
			i++
		}); avg != 0 {
			t.Errorf("%s AcceptMask allocates %.1f per window, want 0", name, avg)
		}
		if avg := testing.AllocsPerRun(50, func() {
			sc.Decisions(probes[i%len(probes)])
			i++
		}); avg != 0 {
			t.Errorf("%s Decisions allocates %.1f per window, want 0", name, avg)
		}
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
		for name, sc := range engineScorers(calibrated) {
			i := 0
			if avg := testing.AllocsPerRun(50, func() {
				sc.AcceptMask(svProbes[i%len(svProbes)])
				i++
			}); avg != 0 {
				t.Errorf("sparse-path %s AcceptMask allocates %.1f per window, want 0", name, avg)
			}
			if len(sc.svDots) == 0 {
				t.Errorf("sparse-path %s: no survivor was scored on the per-survivor path", name)
			}
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
