package eval

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"webtxprofile/internal/features"
	"webtxprofile/internal/sparse"
	"webtxprofile/internal/svm"
	"webtxprofile/internal/taxonomy"
	"webtxprofile/internal/weblog"
)

var start = time.Date(2015, 1, 5, 0, 0, 0, 0, time.UTC)

// makeWindows builds n windows for a user whose vectors cluster on the
// given core columns.
func makeWindows(r *rand.Rand, user string, n int, core []int, noise []int) []features.Window {
	out := make([]features.Window, n)
	for i := range out {
		dense := map[int]float64{}
		for _, c := range core {
			dense[c] = 1
		}
		for _, c := range noise {
			if r.Float64() < 0.4 {
				dense[c] = 1
			}
		}
		out[i] = features.Window{
			Start:      start.Add(time.Duration(i) * 30 * time.Second),
			End:        start.Add(time.Duration(i)*30*time.Second + time.Minute),
			Vector:     sparse.New(dense),
			Count:      5,
			Entity:     user,
			UserCounts: map[string]int{user: 5},
		}
	}
	return out
}

// trainOn fits an OC-SVM on the windows.
func trainOn(t *testing.T, ws []features.Window) *svm.Model {
	t.Helper()
	m, err := svm.TrainOCSVM(features.Vectors(ws), 0.1, svm.TrainConfig{Kernel: svm.Linear()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func threeUsers(t *testing.T) (map[string]*svm.Model, map[string][]features.Window) {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	windows := map[string][]features.Window{
		"user_1": makeWindows(r, "user_1", 80, []int{0, 1, 2}, []int{10, 11}),
		"user_2": makeWindows(r, "user_2", 80, []int{20, 21, 22}, []int{30, 31}),
		"user_3": makeWindows(r, "user_3", 80, []int{40, 41, 42}, []int{50, 51}),
	}
	models := map[string]*svm.Model{}
	for u, ws := range windows {
		models[u] = trainOn(t, ws)
	}
	return models, windows
}

func TestAcceptanceTriple(t *testing.T) {
	a := Acceptance{Self: 0.9, Other: 0.07}
	if math.Abs(a.ACC()-0.83) > 1e-12 {
		t.Errorf("ACC = %v", a.ACC())
	}
	if !strings.Contains(a.String(), "90.0%") {
		t.Errorf("String = %q", a.String())
	}
}

func TestUserAcceptance(t *testing.T) {
	models, windows := threeUsers(t)
	a := UserAcceptance(models["user_1"], "user_1", windows)
	if a.Self < 0.85 {
		t.Errorf("self = %v", a.Self)
	}
	if a.Other > 0.05 {
		t.Errorf("other = %v", a.Other)
	}
}

func TestConfusionMatrix(t *testing.T) {
	models, windows := threeUsers(t)
	cm := Confusion(models, windows)
	if len(cm.Users) != 3 || cm.Users[0] != "user_1" {
		t.Fatalf("users = %v", cm.Users)
	}
	for i := range cm.Users {
		if cm.Ratio[i][i] < 0.85 {
			t.Errorf("diagonal [%d] = %v", i, cm.Ratio[i][i])
		}
		for j := range cm.Users {
			if i != j && cm.Ratio[i][j] > 0.05 {
				t.Errorf("off-diagonal [%d][%d] = %v", i, j, cm.Ratio[i][j])
			}
		}
	}
	mean := cm.Mean()
	if mean.Self < 0.85 || mean.Other > 0.05 {
		t.Errorf("mean = %+v", mean)
	}
	diag := cm.Diagonal()
	if len(diag) != 3 {
		t.Fatalf("diagonal len = %d", len(diag))
	}
	var sb strings.Builder
	if err := cm.Format(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "m1") || !strings.Contains(sb.String(), "t3") {
		t.Errorf("format output missing headers: %q", sb.String())
	}
}

func TestConfusionMatrixEmpty(t *testing.T) {
	cm := &ConfusionMatrix{}
	if got := cm.Mean(); got.Self != 0 || got.Other != 0 {
		t.Errorf("empty mean = %+v", got)
	}
}

func tx(ts time.Time, user, cat, app, sub string) weblog.Transaction {
	mt := taxonomy.MediaType{}
	if sub != "" {
		mt = taxonomy.MediaType{Super: "text", Sub: sub}
	}
	return weblog.Transaction{
		Timestamp: ts, Host: "h.example.com", Scheme: taxonomy.SchemeHTTP,
		Action: taxonomy.ActionGet, UserID: user, SourceIP: "10.0.0.1",
		Category: cat, MediaType: mt, AppType: app,
		Reputation: taxonomy.MinimalRisk,
	}
}

func TestFieldNovelty(t *testing.T) {
	// user_1 visits categories A,B in week 1 and A,B,C after; novelty at
	// week 1 should be 1/3.
	ds := weblog.NewDataset()
	ds.Add(tx(start.Add(1*time.Hour), "user_1", "A", "app1", "html"))
	ds.Add(tx(start.Add(2*time.Hour), "user_1", "B", "app1", "html"))
	ds.Add(tx(start.Add(8*24*time.Hour), "user_1", "A", "app1", "html"))
	ds.Add(tx(start.Add(9*24*time.Hour), "user_1", "B", "app2", "html"))
	ds.Add(tx(start.Add(10*24*time.Hour), "user_1", "C", "app2", "html"))
	pts, err := FieldNovelty(ds, []string{"user_1"}, []int{1, 2}, start, SelectCategory)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if math.Abs(pts[0].Mean-1.0/3) > 1e-9 {
		t.Errorf("week-1 category novelty = %v, want 1/3", pts[0].Mean)
	}
	// The week-2 cut (day 14) lies after every transaction, so the
	// subsequent set is empty and the user is skipped for that week.
	if pts[1].PerUser[0] != -1 || pts[1].Mean != 0 {
		t.Errorf("week-2 point = %+v, want skipped user", pts[1])
	}
	// App-type novelty at week 1: subsequent apps {app1, app2}, observed
	// {app1} -> 1/2.
	apts, err := FieldNovelty(ds, []string{"user_1"}, []int{1}, start, SelectAppType)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(apts[0].Mean-0.5) > 1e-9 {
		t.Errorf("app novelty = %v, want 0.5", apts[0].Mean)
	}
}

func TestFieldNoveltySkipsEmptySubsequent(t *testing.T) {
	ds := weblog.NewDataset()
	ds.Add(tx(start.Add(time.Hour), "user_1", "A", "app1", "html"))
	pts, err := FieldNovelty(ds, []string{"user_1"}, []int{1}, start, SelectCategory)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Mean != 0 || pts[0].PerUser[0] != -1 {
		t.Errorf("point = %+v", pts[0])
	}
}

func TestFieldNoveltyNoUsers(t *testing.T) {
	if _, err := FieldNovelty(weblog.NewDataset(), nil, []int{1}, start, SelectCategory); err == nil {
		t.Error("no users accepted")
	}
}

func TestSelectors(t *testing.T) {
	x := tx(start, "u", "Cat", "App", "html")
	if v, ok := SelectCategory(&x); !ok || v != "Cat" {
		t.Error("SelectCategory")
	}
	if v, ok := SelectAppType(&x); !ok || v != "App" {
		t.Error("SelectAppType")
	}
	if v, ok := SelectMediaSubType(&x); !ok || v != "html" {
		t.Error("SelectMediaSubType")
	}
	empty := tx(start, "u", "", "", "")
	if _, ok := SelectCategory(&empty); ok {
		t.Error("empty category selected")
	}
	if _, ok := SelectMediaSubType(&empty); ok {
		t.Error("zero media selected")
	}
}

func TestWindowNovelty(t *testing.T) {
	// Weeks 1-2: user alternates categories A and B; week 3+: new
	// category C appears, so some subsequent windows are novel.
	ds := weblog.NewDataset()
	for d := 0; d < 14; d++ {
		cat := "A"
		if d%2 == 1 {
			cat = "B"
		}
		ds.Add(tx(start.Add(time.Duration(d)*24*time.Hour), "user_1", cat, "app", "html"))
	}
	for d := 14; d < 21; d++ {
		ds.Add(tx(start.Add(time.Duration(d)*24*time.Hour), "user_1", "C", "app", "html"))
	}
	vocab := features.BuildFromDataset(ds)
	cfg := features.WindowConfig{Duration: time.Minute, Shift: 30 * time.Second}
	pts, err := WindowNovelty(ds, []string{"user_1"}, []int{1, 2}, start, vocab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After week 1 (only A,B seen): subsequent has A, B and C windows;
	// the A/B windows repeat observed vectors, the C windows are novel.
	if pts[0].Mean <= 0 || pts[0].Mean >= 1 {
		t.Errorf("week-1 window novelty = %v, want in (0,1)", pts[0].Mean)
	}
	// After week 2 every subsequent window carries the never-seen
	// category C: novelty 1.
	if pts[1].Mean != 1 {
		t.Errorf("week-2 window novelty = %v, want 1", pts[1].Mean)
	}
}

func TestWindowNoveltyBadConfig(t *testing.T) {
	ds := weblog.NewDataset()
	_, err := WindowNovelty(ds, []string{"u"}, []int{1}, start, features.Build(nil), features.WindowConfig{})
	if err == nil {
		t.Error("bad window config accepted")
	}
}

func TestCoverageCount(t *testing.T) {
	txs := []weblog.Transaction{
		tx(start, "u", "A", "x", "html"),
		tx(start.Add(time.Minute), "u", "B", "x", "css"),
		tx(start.Add(2*time.Minute), "u", "A", "y", ""),
	}
	if got := CoverageCount(txs, SelectCategory); got != 2 {
		t.Errorf("categories = %d", got)
	}
	if got := CoverageCount(txs, SelectAppType); got != 2 {
		t.Errorf("apps = %d", got)
	}
	if got := CoverageCount(txs, SelectMediaSubType); got != 2 {
		t.Errorf("subtypes = %d", got)
	}
}

func TestTimelineAndSummarize(t *testing.T) {
	models, windows := threeUsers(t)
	// Build a host timeline: first user_1's windows, then user_2's.
	host := append([]features.Window{}, windows["user_1"][:10]...)
	host = append(host, windows["user_2"][:10]...)
	tl := Timeline(models, host)
	if len(tl) != 20 {
		t.Fatalf("timeline = %d points", len(tl))
	}
	correct := 0
	for i, pt := range tl {
		want := "user_1"
		if i >= 10 {
			want = "user_2"
		}
		if pt.ActualUser != want {
			t.Fatalf("point %d actual = %s", i, pt.ActualUser)
		}
		for _, u := range pt.Accepted {
			if u == want {
				correct++
			}
		}
	}
	if correct < 16 {
		t.Errorf("own model accepted only %d/20 windows", correct)
	}
	st := Summarize(tl)
	if st.Windows != 20 {
		t.Errorf("windows = %d", st.Windows)
	}
	if st.ActualAccepted < 16 {
		t.Errorf("actual accepted = %d", st.ActualAccepted)
	}
	if u, _, ok := IdentifyConsecutive(tl, 5); !ok || u != "user_1" {
		t.Errorf("consecutive-5 identification = %q (ok=%v), want user_1", u, ok)
	}
}

func TestIdentifyConsecutive(t *testing.T) {
	tl := []TimelinePoint{
		{Accepted: []string{"a", "b"}},
		{Accepted: []string{"a"}},
		{Accepted: []string{"a", "c"}},
		{Accepted: []string{"c"}},
	}
	u, idx, ok := IdentifyConsecutive(tl, 3)
	if !ok || u != "a" || idx != 2 {
		t.Errorf("got %q at %d ok=%v", u, idx, ok)
	}
	// b never reaches 2 consecutive.
	if _, _, ok := IdentifyConsecutive(tl[:1], 2); ok {
		t.Error("identified with too few windows")
	}
	// k<=0 behaves as k=1.
	u, idx, ok = IdentifyConsecutive(tl, 0)
	if !ok || u != "a" || idx != 0 {
		t.Errorf("k=0: got %q at %d ok=%v", u, idx, ok)
	}
	// Reset logic: c's run breaks at point 1.
	u, _, ok = IdentifyConsecutive(tl, 2)
	if !ok || u != "a" {
		t.Errorf("k=2: got %q", u)
	}
	// Ties go to the smaller user id whatever the Accepted order, as in
	// the streaming identifier.
	u, idx, ok = IdentifyConsecutive([]TimelinePoint{{Accepted: []string{"b", "a"}}}, 1)
	if !ok || u != "a" || idx != 0 {
		t.Errorf("unsorted tie: got %q at %d ok=%v, want a at 0", u, idx, ok)
	}
}
