package core

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"webtxprofile/internal/features"
	"webtxprofile/internal/svm"
	"webtxprofile/internal/synth"
	"webtxprofile/internal/weblog"
)

// smallDataset generates a compact but realistic corpus once per package.
var smallDataset = func() *weblog.Dataset {
	cfg := synth.DefaultConfig()
	cfg.Users = 6
	cfg.SmallUsers = 1
	cfg.Devices = 5
	cfg.Weeks = 3
	cfg.Services = 150
	cfg.Archetypes = 6
	cfg.ConfusableUsers = 0
	cfg.ServicesPerUserMin = 10
	cfg.ServicesPerUserMax = 18
	cfg.WeeklyTxMedian = 1600
	cfg.WeeklyTxSigma = 0.4
	cfg.MinKeptTx = 2600
	g, err := synth.NewGenerator(cfg)
	if err != nil {
		panic(err)
	}
	return g.Generate()
}()

func testConfig() Config {
	return Config{
		MaxTrainWindows: 300,
		Workers:         2,
		Train:           svm.TrainConfig{CacheMB: 16},
	}
}

func TestConfigDefaultsAndValidate(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.Window.Duration != time.Minute || cfg.Window.Shift != 30*time.Second {
		t.Errorf("default window = %v", cfg.Window)
	}
	if cfg.Algorithm != svm.OCSVM || cfg.Param != 0.1 || cfg.TrainFraction != 0.75 {
		t.Errorf("defaults = %+v", cfg)
	}
	if svdd := (Config{Algorithm: svm.SVDD}).WithDefaults(); svdd.Param != 0.5 {
		t.Errorf("SVDD default param = %v", svdd.Param)
	}
	if cfg.MinTransactions != 1500 {
		t.Errorf("min transactions = %d", cfg.MinTransactions)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := cfg
	bad.Param = 1.5 // nu must be <= 1 for OC-SVM
	if err := bad.Validate(); err == nil {
		t.Error("nu=1.5 accepted for OC-SVM")
	}
	bad2 := cfg
	bad2.TrainFraction = 1
	if err := bad2.Validate(); err == nil {
		t.Error("train fraction 1 accepted")
	}
	bad3 := cfg
	bad3.Algorithm = svm.Algorithm(9)
	if err := bad3.Validate(); err == nil {
		t.Error("bad algorithm accepted")
	}
}

func TestPrepareSplit(t *testing.T) {
	split, err := PrepareSplit(smallDataset, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(split.Dropped) != 1 {
		t.Errorf("dropped = %v, want the 1 small user", split.Dropped)
	}
	users := split.Train.Users()
	if len(users) != 5 {
		t.Fatalf("train users = %v", users)
	}
	for _, u := range users {
		tr, te := split.Train.UserCount(u), split.Test.UserCount(u)
		frac := float64(tr) / float64(tr+te)
		if frac < 0.74 || frac > 0.76 {
			t.Errorf("%s train fraction = %.3f", u, frac)
		}
	}
}

func TestTrainEvaluateEndToEnd(t *testing.T) {
	set, test, err := Train(smallDataset, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Profiles) != 5 {
		t.Fatalf("profiles = %d", len(set.Profiles))
	}
	for u, p := range set.Profiles {
		if p.UserID != u || p.Model == nil || p.TrainWindows == 0 {
			t.Errorf("profile %s malformed: %+v", u, p)
		}
		if p.Model.NumSVs() == 0 {
			t.Errorf("profile %s has no SVs", u)
		}
	}
	cm, err := set.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	mean := cm.Mean()
	// On cleanly separated synthetic users the paper-shaped result holds:
	// high self acceptance, low other acceptance.
	if mean.Self < 0.6 {
		t.Errorf("mean self acceptance = %.3f, want >= 0.6", mean.Self)
	}
	if mean.Other > 0.35 {
		t.Errorf("mean other acceptance = %.3f, want <= 0.35", mean.Other)
	}
	if mean.ACC() < 0.4 {
		t.Errorf("mean ACC = %.3f", mean.ACC())
	}
}

func TestTrainAutoTune(t *testing.T) {
	cfg := testConfig()
	cfg.AutoTune = true
	cfg.GridParams = []float64{0.2, 0.1}
	cfg.GridKernels = []svm.Kernel{svm.Linear()}
	cfg.MaxTrainWindows = 150
	set, test, err := Train(smallDataset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := set.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Mean().ACC() < 0.4 {
		t.Errorf("auto-tuned ACC = %.3f", cm.Mean().ACC())
	}
	for u, p := range set.Profiles {
		if p.TunedACC == 0 {
			t.Errorf("profile %s has no tuned ACC", u)
		}
	}
}

func TestBuildProfilesErrors(t *testing.T) {
	if _, err := BuildProfiles(weblog.NewDataset(), testConfig()); err == nil {
		t.Error("empty training set accepted")
	}
	cfg := testConfig()
	cfg.Window = features.WindowConfig{Duration: -1, Shift: -1}
	if _, err := BuildProfiles(smallDataset, cfg); err == nil {
		t.Error("invalid window accepted")
	}
}

func TestIdentifyHost(t *testing.T) {
	set, test, err := Train(smallDataset, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	hosts := test.Hosts()
	if len(hosts) == 0 {
		t.Fatal("no hosts in test set")
	}
	tl, err := set.IdentifyHost(test, hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) == 0 {
		t.Fatal("empty timeline")
	}
	if _, err := set.IdentifyHost(test, "203.0.113.1"); err == nil {
		t.Error("unknown host accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	set, test, err := Train(smallDataset, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Window != set.Window || back.Algorithm != set.Algorithm {
		t.Error("metadata drift after round trip")
	}
	if len(back.Profiles) != len(set.Profiles) {
		t.Fatalf("profiles = %d, want %d", len(back.Profiles), len(set.Profiles))
	}
	// Decisions must be identical after reload.
	windows, err := features.ComposeUsers(set.Vocabulary, set.Window, test)
	if err != nil {
		t.Fatal(err)
	}
	for u := range set.Profiles {
		ws := windows[u]
		if len(ws) > 20 {
			ws = ws[:20]
		}
		for i := range ws {
			a := set.Profiles[u].Model.Decision(ws[i].Vector)
			b := back.Profiles[u].Model.Decision(ws[i].Vector)
			if a != b {
				t.Fatalf("decision drift for %s window %d: %v vs %v", u, i, a, b)
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	set, _, err := Train(smallDataset, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bundle.json.gz")
	if err := set.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Profiles) != len(set.Profiles) {
		t.Error("profile count drift")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.gz")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not gzip"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestIdentifierStreaming(t *testing.T) {
	set, test, err := Train(smallDataset, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Feed one user's test transactions as if they came from one device.
	users := set.Users()
	u := users[0]
	txs := test.UserTransactions(u)
	if len(txs) > 2000 {
		txs = txs[:2000]
	}
	const host = "192.0.2.7"
	id, err := NewIdentifier(set, host, 3)
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	for _, tx := range txs {
		tx.SourceIP = host
		evs, err := id.Feed(tx)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, evs...)
	}
	events = append(events, id.Flush()...)
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	// The profiled user should be identified at some point.
	identified := false
	for _, ev := range events {
		if ev.Identified == u {
			identified = true
			break
		}
	}
	if !identified {
		t.Errorf("user %s never identified across %d events", u, len(events))
	}
}

func TestIdentifierRejectsWrongHost(t *testing.T) {
	set, test, err := Train(smallDataset, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	id, err := NewIdentifier(set, "192.0.2.7", 1)
	if err != nil {
		t.Fatal(err)
	}
	tx := test.Transactions[0]
	tx.SourceIP = "198.51.100.1"
	if _, err := id.Feed(tx); err == nil {
		t.Error("foreign-host transaction accepted")
	}
}

// TestIdentifierSparseStreaksMatchDense replays the streak rule with a
// dense per-user run table from each event's accepted users and checks
// the identifier's sparse streak list agrees at every window: it holds
// exactly the window's accepting users, with the dense runs, and the
// identified user is the dense rule's winner. A mid-stream snapshot and
// restore must carry the same streaks.
func TestIdentifierSparseStreaksMatchDense(t *testing.T) {
	set, test, err := Train(smallDataset, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	users := set.Users()
	index := make(map[string]int, len(users))
	for j, u := range users {
		index[u] = j
	}
	const host, k = "192.0.2.9", 2
	id, err := NewIdentifier(set, host, k)
	if err != nil {
		t.Fatal(err)
	}
	dense := make([]int, len(users))
	windows := 0
	check := func(evs []Event) {
		t.Helper()
		for _, ev := range evs {
			windows++
			accepted := make([]bool, len(users))
			for _, u := range ev.Accepted {
				accepted[index[u]] = true
			}
			want, best := "", 0
			for j := range users {
				if accepted[j] {
					dense[j]++
				} else {
					dense[j] = 0
				}
				if dense[j] >= k && dense[j] > best {
					best, want = dense[j], users[j]
				}
			}
			if ev.Identified != want {
				t.Fatalf("window %d: identified %q, dense rule %q", windows, ev.Identified, want)
			}
		}
		if len(evs) == 0 {
			return
		}
		// The streak list reflects the last window of the batch.
		if last := evs[len(evs)-1]; len(id.streaks) != len(last.Accepted) {
			t.Fatalf("window %d: %d streaks for %d accepting users", windows, len(id.streaks), len(last.Accepted))
		}
		for _, sk := range id.streaks {
			if sk.Run != dense[sk.User] {
				t.Fatalf("window %d: user %s streak %d, dense %d", windows, users[sk.User], sk.Run, dense[sk.User])
			}
		}
	}
	txs := test.Transactions
	if len(txs) > 3000 {
		txs = txs[:3000]
	}
	for i, tx := range txs {
		tx.SourceIP = host
		evs, err := id.Feed(tx)
		if err != nil {
			t.Fatal(err)
		}
		check(evs)
		if i == len(txs)/2 {
			if id, err = RestoreIdentifier(set, id.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
	}
	check(id.Flush())
	if windows == 0 {
		t.Fatal("no windows scored")
	}
}
