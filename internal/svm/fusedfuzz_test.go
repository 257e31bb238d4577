package svm

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"webtxprofile/internal/sparse"
)

// fuzzProbe derives a sparse window from raw fuzz bytes: byte pairs become
// (index delta, value), keeping indices strictly ascending so the vector
// meets the sparse contract, with values spanning signs and magnitudes the
// random test vectors never produce.
func fuzzProbe(raw []byte) sparse.Vector {
	dense := make(map[int]float64, len(raw)/2)
	idx := 0
	for i := 0; i+1 < len(raw); i += 2 {
		idx += 1 + int(raw[i]%32)
		// Map the value byte to [-6.35, 6.4]: zero and sign flips included.
		dense[idx] = (float64(raw[i+1]) - 127) / 20
	}
	return sparse.New(dense)
}

// fuzzVsScalarSeeds covers the interesting probe shapes: empty, single
// column, dense runs, negative values, and values large enough to push the
// RBF screening bound's table index past both clamp ends.
func fuzzVsScalarSeeds() [][]byte {
	return [][]byte{
		{},
		{0, 0},
		{1, 255},
		{3, 0, 5, 64, 7, 200},
		{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8},
		{31, 255, 31, 255, 31, 255, 31, 255},
		{2, 127, 4, 128, 8, 126, 16, 129},
		{5, 250, 5, 5, 5, 250, 5, 5, 5, 250},
	}
}

// FuzzFusedVsScalar is the differential fuzz target for the fused index:
// for an arbitrary window over a mixed population (every kernel and
// algorithm, plus calibrated RBF profiles the pre-accumulate screen mostly
// rejects), the fused scorer must produce decisions bit-identical to
// scoring each model alone, and identical accept masks.
func FuzzFusedVsScalar(f *testing.F) {
	for _, seed := range fuzzVsScalarSeeds() {
		f.Add(seed)
	}
	r := rand.New(rand.NewSource(81))
	var models []*Model
	for _, algo := range []Algorithm{OCSVM, SVDD} {
		for _, k := range kernelsUnderTest() {
			m := randomSVModel(r, algo, k, 1+r.Intn(20), 300, 4+r.Intn(12))
			if err := m.Validate(); err != nil {
				f.Fatal(err)
			}
			models = append(models, m)
		}
	}
	// Calibrated RBF profiles the pre-accumulate screen mostly rejects,
	// so both AcceptMask paths (per-survivor and fused) get fuzzed.
	for i := 0; i < 24; i++ {
		models = append(models, calibratedRBFModel(f, r, 300, 0.3, 1, i%2 == 0))
	}
	sc := NewScorer(models)

	f.Fuzz(func(t *testing.T, raw []byte) {
		x := fuzzProbe(raw)
		got := sc.Decisions(x)
		for i, m := range models {
			if want := m.Decision(x); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("model %d (%v/%v): fused %x diverges from solo %x",
					i, m.Algo, m.Kernel, math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
		mask := sc.AcceptMask(x)
		for i, m := range models {
			if want := m.Accept(x); mask[i] != want {
				t.Fatalf("model %d (%v/%v): fused mask %v diverges from solo %v",
					i, m.Algo, m.Kernel, mask[i], want)
			}
		}
	})
}

// TestRegenerateFusedVsScalarCorpus rewrites testdata/fuzz/FuzzFusedVsScalar
// from fuzzVsScalarSeeds when WTP_REGEN_CORPUS=1, so the checked-in corpus
// never drifts from the seed list. Normally it only verifies the files
// exist.
func TestRegenerateFusedVsScalarCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzFusedVsScalar")
	if os.Getenv("WTP_REGEN_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		old, err := filepath.Glob(filepath.Join(dir, "seed-*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range old {
			os.Remove(f)
		}
		for i, seed := range fuzzVsScalarSeeds() {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("corpus directory missing (run with WTP_REGEN_CORPUS=1 to create): %v", err)
	}
	if len(entries) < len(fuzzVsScalarSeeds()) {
		t.Fatalf("corpus has %d entries, want at least %d", len(entries), len(fuzzVsScalarSeeds()))
	}
}
