package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"webtxprofile/internal/eval"
	"webtxprofile/internal/features"
	"webtxprofile/internal/svm"
)

// tinyScale keeps every experiment runnable in a few seconds of test time.
func tinyScale() Scale {
	s := SmallScale(7)
	s.Name = "tiny"
	s.Synth.Users = 6
	s.Synth.SmallUsers = 1
	s.Synth.Devices = 5
	s.Synth.Weeks = 3
	s.Synth.Services = 150
	s.Synth.Archetypes = 5
	s.Synth.ConfusableUsers = 2
	s.Synth.WeeklyTxMedian = 1200
	s.Synth.WeeklyTxSigma = 0.4
	s.NoveltyWeeks = []int{1, 2}
	s.GridTrainCap = 120
	s.GridOtherCap = 40
	s.FinalTrainCap = 200
	s.EvalCap = 150
	s.Params = []float64{0.5, 0.1}
	s.Combos = []features.WindowConfig{
		RetainedWindow(),
		{Duration: 300e9, Shift: 60e9},
	}
	return s
}

// sharedEnv is built once; experiments only read from it.
var sharedEnv = func() *Env {
	e, err := NewEnv(tinyScale())
	if err != nil {
		panic(err)
	}
	return e
}()

func formatted(t *testing.T, tab *Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tab.Format(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestEnvPreparation(t *testing.T) {
	if len(sharedEnv.Users) != 5 {
		t.Fatalf("users = %v", sharedEnv.Users)
	}
	if sharedEnv.Vocab.Size() == 0 {
		t.Fatal("empty vocabulary")
	}
	if sharedEnv.Train.Len() == 0 || sharedEnv.Test.Len() == 0 {
		t.Fatal("empty split")
	}
}

func TestTable1(t *testing.T) {
	tab, err := Table1(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	out := formatted(t, tab)
	if !strings.Contains(out, "843") {
		t.Errorf("missing full-taxonomy total:\n%s", out)
	}
	if len(tab.Rows) != 10 {
		t.Errorf("rows = %d, want 9 groups + total", len(tab.Rows))
	}
}

func TestFigure1(t *testing.T) {
	tab, err := Figure1(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(sharedEnv.Scale.NoveltyWeeks) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	out := formatted(t, tab)
	if !strings.Contains(out, "application_type") {
		t.Errorf("missing series:\n%s", out)
	}
}

func TestFigure2(t *testing.T) {
	tab, err := Figure2(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(sharedEnv.Scale.NoveltyWeeks) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestTable2(t *testing.T) {
	tab, err := Table2(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if len(tab.Rows[0]) != len(sharedEnv.Scale.Combos)+1 {
		t.Errorf("columns = %d", len(tab.Rows[0]))
	}
}

func TestTable3(t *testing.T) {
	tab, err := Table3(sharedEnv, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(sharedEnv.Scale.Params) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if _, err := Table3(sharedEnv, "no_such_user"); err == nil {
		t.Error("unknown user accepted")
	}
}

func TestTable4AndTable5AndFig34(t *testing.T) {
	// These share the cached optimized parameters; run in sequence.
	tab4, err := Table4(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab4.Rows) != 6 {
		t.Fatalf("tab4 rows = %d", len(tab4.Rows))
	}
	checkTable4Pins(t, tab4)
	tab5, err := Table5(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab5.Rows) != len(sharedEnv.Users) {
		t.Fatalf("tab5 rows = %d", len(tab5.Rows))
	}
	out := formatted(t, tab5)
	if !strings.Contains(out, "mean diagonal") {
		t.Errorf("missing summary note:\n%s", out)
	}
	meanDiagonal := checkTable5Pins(t, tab5)

	fig3, err := Figure3(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	accepted, windows := checkFigure3Pins(t, fig3)
	checkQualityFloor(t, meanDiagonal, accepted, windows)

	fig4, err := Figure4(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig4.Rows) != 2 {
		t.Fatalf("fig4 rows = %d", len(fig4.Rows))
	}
}

// checkTable4Pins pins the seeded Table 4 reproduction: ACCself, ACCother
// and ACC for OC-SVM and SVDD at both tinyScale combos, to within 0.1
// percentage point. The values are recomputed as Table4 computes them (one
// model per user and combo, scored by eval.UserAcceptance), and the
// rendered table must show them. They are this synthetic corpus's numbers,
// not the paper's (Table IV reports self-acceptance of 82–93%).
func checkTable4Pins(t *testing.T, tab4 *Table) {
	t.Helper()
	// want[algo][combo] = {ACCself, ACCother, ACC} in percent.
	want := [2][2][3]float64{
		{{78.8, 14.4, 64.3}, {57.3, 6.8, 50.5}}, // OC-SVM
		{{82.0, 15.3, 66.8}, {58.8, 6.3, 52.5}}, // SVDD
	}
	const tol = 0.1 // percentage points
	for ai, algo := range []svm.Algorithm{svm.OCSVM, svm.SVDD} {
		bests, err := sharedEnv.Optimized(algo)
		if err != nil {
			t.Fatal(err)
		}
		for ci, combo := range sharedEnv.Scale.Combos {
			trainWs, err := features.ComposeUsers(sharedEnv.Vocab, combo, sharedEnv.Train)
			if err != nil {
				t.Fatal(err)
			}
			testWs, err := features.ComposeUsers(sharedEnv.Vocab, combo, sharedEnv.Test)
			if err != nil {
				t.Fatal(err)
			}
			var self, other float64
			for _, u := range sharedEnv.Users {
				m, err := svm.Train(algo,
					features.Vectors(capWindows(trainWs[u], sharedEnv.Scale.GridTrainCap)),
					bests[u].Param, svm.TrainConfig{Kernel: bests[u].Kernel, CacheMB: 32})
				if err != nil {
					t.Fatal(err)
				}
				acc := eval.UserAcceptance(m, u, capAll(testWs, sharedEnv.Scale.EvalCap))
				self += acc.Self
				other += acc.Other
			}
			n := float64(len(sharedEnv.Users))
			got := [3]float64{100 * self / n, 100 * other / n, 100 * (self - other) / n}
			for k, name := range []string{"ACCself", "ACCother", "ACC"} {
				label := algo.String() + " " + name + " " + tab4.Header[2+ci]
				if w := want[ai][ci][k]; math.Abs(got[k]-w) > tol {
					t.Errorf("%s = %.2f%%, want %.1f%% ± %.1f", label, got[k], w, tol)
				}
				cell, err := strconv.ParseFloat(tab4.Rows[3*ai+k][2+ci], 64)
				if err != nil || math.Abs(cell-got[k]) > 0.05+1e-9 {
					t.Errorf("tab4 shows %s = %q, recomputed %.2f%%", label, tab4.Rows[3*ai+k][2+ci], got[k])
				}
			}
		}
	}
}

// checkTable5Pins pins the seeded Table 5 reproduction, which scores every
// test window through the fused index's AcceptMask: the confusion
// diagonal and the mean acceptance triple, to within 0.1 percentage
// point. The values come from the confusion matrix itself (rebuilt as
// Table5 builds it), and the rendered table must show that matrix. They
// are this synthetic corpus's numbers, not the paper's (Table V reports
// self-acceptance around 90%). It returns the mean diagonal in percent.
func checkTable5Pins(t *testing.T, tab5 *Table) float64 {
	t.Helper()
	models, err := sharedEnv.Models(svm.OCSVM)
	if err != nil {
		t.Fatal(err)
	}
	testWs, err := sharedEnv.TestWindows()
	if err != nil {
		t.Fatal(err)
	}
	cm := eval.Confusion(models, capAll(testWs, sharedEnv.Scale.EvalCap))
	const tol = 0.1 // percentage points
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(100*got-want) > tol {
			t.Errorf("%s = %.2f%%, want %.1f%% ± %.1f", name, 100*got, want, tol)
		}
	}
	diag := []float64{85.7, 81.7, 80.3, 86.7, 78.3}
	if len(cm.Users) != len(diag) {
		t.Fatalf("confusion matrix has %d users, want %d", len(cm.Users), len(diag))
	}
	for i, want := range diag {
		near("diagonal "+cm.Users[i], cm.Ratio[i][i], want)
		if got := tab5.Rows[i][i+1]; got != pct(cm.Ratio[i][i]) {
			t.Errorf("tab5 row %d shows %s on the diagonal, the matrix holds %s", i, got, pct(cm.Ratio[i][i]))
		}
	}
	mean := cm.Mean()
	near("ACCself", mean.Self, 82.5)
	near("ACCother", mean.Other, 15.4)
	near("ACC", mean.ACC(), 67.2)
	return 100 * mean.Self
}

// checkFigure3Pins pins the seeded Figure 3 reproduction as exact strings:
// the actual-user track, the accept row of every model that accepted a
// window ('#' accepted, '.' not, one column per window), the window count,
// true-user acceptance and exclusive-correct count, and the consecutive-5
// identification. The three-user scenario is this synthetic corpus's, not
// the paper's (7 of 25 models accepted a window there). It returns the
// true-user acceptance as the notes state it: accepted of windows.
func checkFigure3Pins(t *testing.T, fig3 *Table) (accepted, windows int) {
	t.Helper()
	want := [][2]string{
		{"actual", "11111111111111111111111111111111111111111111111111111111111111111111111111111112222222222222222222222222222222222222222222222222222222222223333333333333333333333333333333333333333333333333333333333333"},
		{"user_1", "#########################################.############################################...#....##............#......#....##........#..#.#.........................#................#..#...........##....."},
		{"user_2", "#########################################.############################################...##.#.##............#......#...###........#..#.#..#......................#...................#...........##....."},
		{"user_3", "......##...#.....##.##.##....##....###...............###..#..#.....##..........###############################.#######.####################............................................................."},
		{"user_4", "........#........##.......................................................................................................................................#............................................."},
		{"user_5", "....................##......#.......#.................##.............................#...............................#....###.....#.........##########..####################.###########################"},
	}
	if len(fig3.Rows) != len(want) {
		t.Errorf("fig3 has %d rows, want %d", len(fig3.Rows), len(want))
	}
	for i := 0; i < len(want) && i < len(fig3.Rows); i++ {
		if got := fig3.Rows[i]; got[0] != want[i][0] || got[1] != want[i][1] {
			t.Errorf("fig3 row %d:\n got %s %s\nwant %s %s", i, got[0], got[1], want[i][0], want[i][1])
		}
	}
	notes := strings.Join(fig3.Notes, "\n")
	for _, pin := range []string{
		"windows: 200, true-user acceptance 193/200, exclusive-correct 84,",
		`consecutive-5 identification: "user_1" (ok=true)`,
	} {
		if !strings.Contains(notes, pin) {
			t.Errorf("fig3 notes lack %q:\n%s", pin, notes)
		}
	}
	for _, note := range fig3.Notes {
		if _, err := fmt.Sscanf(note, "windows: %d, true-user acceptance %d/", &windows, &accepted); err == nil {
			return accepted, windows
		}
	}
	t.Fatalf("fig3 notes state no true-user acceptance:\n%s", notes)
	return 0, 0
}

// checkQualityFloor holds the reproduction above a floor that no change
// may breach, separate from the exact pins: the mean Table 5 diagonal at
// least 80.5% (the 82.5% pin less 2.0 points) and Figure 3's true-user
// acceptance at least 185 of 200 windows (the 193/200 pin less 8
// windows). A deliberate model change may re-pin the exact values, but it
// may not go below the floor.
func checkQualityFloor(t *testing.T, meanDiagonal float64, accepted, windows int) {
	t.Helper()
	const (
		diagonalFloor = 80.5 // percent
		acceptedFloor = 185  // of floorWindows
		floorWindows  = 200
	)
	if meanDiagonal < diagonalFloor {
		t.Errorf("mean Table 5 diagonal %.2f%% is below the %.1f%% floor", meanDiagonal, diagonalFloor)
	}
	if accepted*floorWindows < acceptedFloor*windows {
		t.Errorf("Figure 3 true-user acceptance %d/%d is below the %d/%d floor", accepted, windows, acceptedFloor, floorWindows)
	}
}

func TestFigure5(t *testing.T) {
	tab, err := Figure5(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	out := formatted(t, tab)
	if !strings.Contains(out, "linear fit") {
		t.Errorf("missing fit note:\n%s", out)
	}
}

func TestAblations(t *testing.T) {
	flow, err := AblationFlow(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(flow.Rows) != 3 {
		t.Fatalf("flow ablation rows = %d", len(flow.Rows))
	}
	feat, err := AblationFeatures(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(feat.Rows) != 6 {
		t.Fatalf("feature ablation rows = %d", len(feat.Rows))
	}
}

func TestOptimizedCached(t *testing.T) {
	a, err := sharedEnv.Optimized(svm.OCSVM)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sharedEnv.Optimized(svm.OCSVM)
	if err != nil {
		t.Fatal(err)
	}
	for u := range a {
		if a[u].Param != b[u].Param || a[u].Kernel != b[u].Kernel {
			t.Errorf("cache drift for %s", u)
		}
	}
}

func TestScalesValidate(t *testing.T) {
	for _, s := range []Scale{SmallScale(1), PaperScale(1)} {
		if err := s.Synth.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if len(s.NoveltyWeeks) == 0 || len(s.Params) == 0 || len(s.Combos) == 0 {
			t.Errorf("%s: incomplete scale", s.Name)
		}
	}
}

func TestExtensions(t *testing.T) {
	algos, err := ExtensionAlgorithms(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(algos.Rows) != 3 {
		t.Fatalf("algorithm rows = %d", len(algos.Rows))
	}
	out := formatted(t, algos)
	if !strings.Contains(out, "autoencoder") {
		t.Errorf("missing autoencoder row:\n%s", out)
	}
	epoch, err := ExtensionTrainingEpoch(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(epoch.Rows) != 4 {
		t.Fatalf("epoch rows = %d", len(epoch.Rows))
	}
}

func TestExtensionROCAndLatency(t *testing.T) {
	roc, err := ExtensionROC(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(roc.Rows) != len(sharedEnv.Users)+1 {
		t.Fatalf("roc rows = %d", len(roc.Rows))
	}
	if !strings.HasPrefix(roc.Rows[len(roc.Rows)-1][0], "mean") {
		t.Error("missing mean row")
	}
	lat, err := ExtensionIdentificationLatency(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(lat.Rows) != 4 {
		t.Fatalf("latency rows = %d", len(lat.Rows))
	}
	checkLatencyPins(t, lat)
}

// checkLatencyPins pins the seeded time-to-identification table, the one
// check of the abstract's "<5 minutes" claim that runs the consecutive-k
// rule over every user's test windows: per k, the users identified, the
// users identified correctly and the median windows to identification.
func checkLatencyPins(t *testing.T, lat *Table) {
	t.Helper()
	want := [][4]string{
		{"1", "5/5", "4/5", "1"},
		{"3", "5/5", "4/5", "4"},
		{"5", "5/5", "4/5", "6"},
		{"10", "5/5", "5/5", "23"},
	}
	for i, w := range want {
		if got := lat.Rows[i]; got[0] != w[0] || got[1] != w[1] || got[2] != w[2] || got[3] != w[3] {
			t.Errorf("latency row %d = %q, want k=%s identified %s correct %s median windows %s", i, got[:4], w[0], w[1], w[2], w[3])
		}
	}
}

func TestExtensionDrift(t *testing.T) {
	tab, err := ExtensionDrift(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no drift rows")
	}
	if len(tab.Rows[0]) != 4 {
		t.Fatalf("row shape = %d", len(tab.Rows[0]))
	}
}
