package features

import (
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"webtxprofile/internal/taxonomy"
	"webtxprofile/internal/weblog"
)

var t0 = time.Date(2015, 5, 29, 5, 0, 0, 0, time.UTC)

func tx(offset time.Duration, user, category, app string, mt taxonomy.MediaType, rep taxonomy.Reputation) weblog.Transaction {
	return weblog.Transaction{
		Timestamp:  t0.Add(offset),
		Host:       "www.example.com",
		Scheme:     taxonomy.SchemeHTTP,
		Action:     taxonomy.ActionGet,
		UserID:     user,
		SourceIP:   "10.0.0.1",
		Category:   category,
		MediaType:  mt,
		AppType:    app,
		Reputation: rep,
	}
}

func corpus() []weblog.Transaction {
	return []weblog.Transaction{
		tx(0, "user_1", "Games", "Rhapsody", taxonomy.MediaType{Super: "text", Sub: "html"}, taxonomy.MinimalRisk),
		tx(10*time.Second, "user_1", "News", "CloudFlare", taxonomy.MediaType{Super: "video", Sub: "mp4"}, taxonomy.MediumRisk),
		tx(20*time.Second, "user_2", "Games", "", taxonomy.MediaType{}, taxonomy.Unverified),
	}
}

func TestBuildVocabularyLayout(t *testing.T) {
	v := Build(corpus())
	counts, total := v.GroupCounts()
	want := [9]int{4, 2, 1, 1, 1, 2, 2, 2, 2}
	if counts != want {
		t.Errorf("GroupCounts = %v, want %v", counts, want)
	}
	if total != 17 || v.Size() != 17 {
		t.Errorf("Size = %d, want 17", v.Size())
	}
	if len(v.NumericCols()) != 3 {
		t.Errorf("numeric cols = %v", v.NumericCols())
	}
}

func TestBuildFullMatchesTableI(t *testing.T) {
	v := BuildFull(taxonomy.Default())
	counts, total := v.GroupCounts()
	want := [9]int{4, 2, 1, 1, 1, 105, 8, 257, 464}
	if counts != want {
		t.Errorf("GroupCounts = %v, want %v", counts, want)
	}
	if total != 843 {
		t.Errorf("total columns = %d, want 843 (Table I)", total)
	}
}

func TestExtract(t *testing.T) {
	v := Build(corpus())
	c := corpus()

	x := v.Extract(&c[0]) // GET, HTTP, Games, text/html, Rhapsody, minimal
	if err := x.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// GET is column 0, HTTP is column 4 (after the 4 actions).
	if x.At(0) != 1 {
		t.Error("GET column not set")
	}
	if x.At(4) != 1 {
		t.Error("HTTP column not set")
	}
	// minimal risk: verified=1, risk=0 (not stored).
	if x.At(8) != 1 { // colVerif = 4+2+1+1 = 8
		t.Error("verified column not set for minimal-risk")
	}
	if x.At(7) != 0 {
		t.Error("risk column set for minimal-risk")
	}

	y := v.Extract(&c[1]) // medium risk
	if y.At(7) != 0.5 {
		t.Errorf("risk column = %v, want 0.5", y.At(7))
	}

	z := v.Extract(&c[2]) // unverified, no media, no app
	if z.At(8) != 0 || z.At(7) != 0 {
		t.Error("unverified transaction has reputation columns set")
	}
	// Exactly: GET, HTTP, Games => 3 non-zeros.
	if z.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3 (%v)", z.NNZ(), z)
	}
}

func TestExtractUnknownValuesIgnored(t *testing.T) {
	v := Build(corpus())
	u := tx(0, "user_9", "NeverSeen", "NoSuchApp", taxonomy.MediaType{Super: "font", Sub: "woff"}, taxonomy.MinimalRisk)
	x := v.Extract(&u)
	// Only action, scheme, verified survive.
	if x.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3 (%v)", x.NNZ(), x)
	}
}

func TestExtractPrivateFlag(t *testing.T) {
	v := Build(corpus())
	p := tx(0, "user_1", "Games", "", taxonomy.MediaType{}, taxonomy.Unverified)
	p.Private = true
	x := v.Extract(&p)
	if x.At(6) != 1 { // colPub = 4+2 = 6
		t.Error("public-address flag not set for private destination")
	}
}

func TestVocabularyJSONRoundTrip(t *testing.T) {
	v := Build(corpus())
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Vocabulary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.Size() != v.Size() {
		t.Fatalf("size mismatch %d != %d", back.Size(), v.Size())
	}
	c := corpus()
	for i := range c {
		a, b := v.Extract(&c[i]), back.Extract(&c[i])
		if !reflect.DeepEqual(a, b) {
			t.Errorf("transaction %d extracts differently after round trip", i)
		}
	}
}

func TestColumnName(t *testing.T) {
	v := Build(corpus())
	if got := v.ColumnName(0); got != "action:GET" {
		t.Errorf("ColumnName(0) = %q", got)
	}
	if got := v.ColumnName(6); got != "public-address-flag" {
		t.Errorf("ColumnName(6) = %q", got)
	}
	if got := v.ColumnName(999); got != "column(999)" {
		t.Errorf("ColumnName(999) = %q", got)
	}
}

func TestWindowConfigValidate(t *testing.T) {
	good := WindowConfig{Duration: time.Minute, Shift: 30 * time.Second}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []WindowConfig{
		{Duration: 0, Shift: time.Second},
		{Duration: time.Minute, Shift: 0},
		{Duration: time.Second, Shift: time.Minute},
		{Duration: -time.Minute, Shift: -time.Minute},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %v accepted", c)
		}
	}
}

// windowCorpus spreads transactions over 3 minutes: 3 in minute one,
// 1 in minute two, none in minute three, 1 at 3m30s.
func windowCorpus() []weblog.Transaction {
	return []weblog.Transaction{
		tx(0, "user_1", "Games", "Rhapsody", taxonomy.MediaType{Super: "text", Sub: "html"}, taxonomy.MinimalRisk),
		tx(15*time.Second, "user_1", "News", "CloudFlare", taxonomy.MediaType{Super: "video", Sub: "mp4"}, taxonomy.MediumRisk),
		tx(45*time.Second, "user_2", "Games", "", taxonomy.MediaType{}, taxonomy.Unverified),
		tx(70*time.Second, "user_1", "Games", "Rhapsody", taxonomy.MediaType{Super: "text", Sub: "html"}, taxonomy.HighRisk),
		tx(210*time.Second, "user_1", "News", "CloudFlare", taxonomy.MediaType{Super: "video", Sub: "mp4"}, taxonomy.MinimalRisk),
	}
}

func TestComposeBasic(t *testing.T) {
	txs := windowCorpus()
	v := Build(txs)
	cfg := WindowConfig{Duration: time.Minute, Shift: time.Minute}
	ws, err := Compose(v, cfg, txs, "user_1")
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	// Windows anchored at t0: [0,60) has 3 txs, [60,120) has 1, [120,180)
	// empty (skipped), [180,240) has 1.
	if len(ws) != 3 {
		t.Fatalf("got %d windows, want 3: %+v", len(ws), ws)
	}
	if ws[0].Count != 3 || ws[1].Count != 1 || ws[2].Count != 1 {
		t.Errorf("window counts = %d,%d,%d", ws[0].Count, ws[1].Count, ws[2].Count)
	}
	if !ws[0].Start.Equal(t0) || !ws[0].End.Equal(t0.Add(time.Minute)) {
		t.Errorf("window 0 span %v..%v", ws[0].Start, ws[0].End)
	}
	if ws[2].Start != t0.Add(3*time.Minute) {
		t.Errorf("window 2 start %v", ws[2].Start)
	}
	if ws[0].Entity != "user_1" {
		t.Errorf("entity = %q", ws[0].Entity)
	}
	if ws[0].UserCounts["user_1"] != 2 || ws[0].UserCounts["user_2"] != 1 {
		t.Errorf("user counts = %v", ws[0].UserCounts)
	}
	if ws[0].DominantUser() != "user_1" {
		t.Errorf("dominant = %q", ws[0].DominantUser())
	}
}

func TestComposeOverlap(t *testing.T) {
	txs := windowCorpus()
	v := Build(txs)
	cfg := WindowConfig{Duration: time.Minute, Shift: 30 * time.Second}
	ws, err := Compose(v, cfg, txs, "x")
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	// Overlapping windows: [0,60) count 3, [30,90) count 2, [60,120) count
	// 1, [90,150)/[120,180)/[150,210) empty, [180,240) count 1, [210,270)
	// count 1.
	counts := make([]int, len(ws))
	for i := range ws {
		counts[i] = ws[i].Count
	}
	want := []int{3, 2, 1, 1, 1}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
}

func TestComposeAggregation(t *testing.T) {
	txs := windowCorpus()[:3] // first three in one window
	v := Build(windowCorpus())
	cfg := WindowConfig{Duration: time.Minute, Shift: time.Minute}
	ws, err := Compose(v, cfg, txs, "x")
	if err != nil || len(ws) != 1 {
		t.Fatalf("Compose: %v (%d windows)", err, len(ws))
	}
	vec := ws[0].Vector
	// risk mean: (0 + 0.5 + 0)/3
	if math.Abs(vec.At(7)-0.5/3) > 1e-9 {
		t.Errorf("risk mean = %v", vec.At(7))
	}
	// verified mean: (1+1+0)/3
	if math.Abs(vec.At(8)-2.0/3) > 1e-9 {
		t.Errorf("verified mean = %v", vec.At(8))
	}
	// GET OR'd across all three.
	if vec.At(0) != 1 {
		t.Error("GET column not 1")
	}
}

func TestComposeRejectsUnsorted(t *testing.T) {
	txs := windowCorpus()
	txs[0], txs[1] = txs[1], txs[0]
	v := Build(txs)
	if _, err := Compose(v, WindowConfig{Duration: time.Minute, Shift: time.Minute}, txs, "x"); err == nil {
		t.Error("Compose accepted unsorted input")
	}
}

func TestComposeEmptyInput(t *testing.T) {
	v := Build(nil)
	ws, err := Compose(v, WindowConfig{Duration: time.Minute, Shift: time.Minute}, nil, "x")
	if err != nil || ws != nil {
		t.Errorf("empty compose: %v, %v", ws, err)
	}
}

func TestComposeUsersAndHosts(t *testing.T) {
	txs := windowCorpus()
	ds := weblog.FromTransactions(txs)
	v := BuildFromDataset(ds)
	cfg := WindowConfig{Duration: time.Minute, Shift: time.Minute}
	byUser, err := ComposeUsers(v, cfg, ds)
	if err != nil {
		t.Fatalf("ComposeUsers: %v", err)
	}
	if len(byUser) != 2 {
		t.Fatalf("got %d users", len(byUser))
	}
	for u, ws := range byUser {
		for _, w := range ws {
			if len(w.UserCounts) != 1 || w.UserCounts[u] != w.Count {
				t.Errorf("user window for %s contains foreign transactions: %v", u, w.UserCounts)
			}
		}
	}
	byHost, err := ComposeHosts(v, cfg, ds)
	if err != nil {
		t.Fatalf("ComposeHosts: %v", err)
	}
	// All transactions share one source address.
	if len(byHost) != 1 {
		t.Fatalf("got %d hosts", len(byHost))
	}
}

func TestStreamerMatchesCompose(t *testing.T) {
	configs := []WindowConfig{
		{Duration: time.Minute, Shift: time.Minute},
		{Duration: time.Minute, Shift: 30 * time.Second},
		{Duration: 90 * time.Second, Shift: 10 * time.Second},
	}
	txs := windowCorpus()
	v := Build(txs)
	for _, cfg := range configs {
		want, err := Compose(v, cfg, txs, "x")
		if err != nil {
			t.Fatalf("Compose: %v", err)
		}
		st, err := NewStreamer(v, cfg, "x")
		if err != nil {
			t.Fatalf("NewStreamer: %v", err)
		}
		var got []Window
		for _, x := range txs {
			ws, err := st.Add(x)
			if err != nil {
				t.Fatalf("Add: %v", err)
			}
			got = append(got, ws...)
		}
		got = append(got, st.Close()...)
		if len(got) != len(want) {
			t.Fatalf("%v: streamer emitted %d windows, compose %d", cfg, len(got), len(want))
		}
		for i := range got {
			if !got[i].Start.Equal(want[i].Start) || got[i].Count != want[i].Count {
				t.Errorf("%v: window %d differs: %+v vs %+v", cfg, i, got[i], want[i])
			}
			if got[i].Vector.Key() != want[i].Vector.Key() {
				t.Errorf("%v: window %d vectors differ", cfg, i)
			}
		}
		if st.Emitted() != len(want) {
			t.Errorf("Emitted = %d, want %d", st.Emitted(), len(want))
		}
	}
}

// TestStreamersShareScratchConcurrently feeds streamers on one vocabulary
// from several goroutines at once. They share the vocabulary's
// window-build scratch, and each must still emit exactly Compose's
// windows, user counts included.
func TestStreamersShareScratchConcurrently(t *testing.T) {
	cfg := WindowConfig{Duration: time.Minute, Shift: 10 * time.Second}
	txs := make([]weblog.Transaction, 400)
	for i := range txs {
		txs[i] = traceTx(t0.Add(time.Duration(i)*3*time.Second), i)
	}
	v := Build(txs)
	want, err := Compose(v, cfg, txs, "x")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := NewStreamer(v, cfg, "x")
			if err != nil {
				t.Error(err)
				return
			}
			var got []Window
			for _, x := range txs {
				ws, err := st.Add(x)
				if err != nil {
					t.Error(err)
					return
				}
				got = append(got, ws...)
			}
			got = append(got, st.Close()...)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("goroutine %d: streamer windows differ from Compose's", g)
			}
		}()
	}
	wg.Wait()
}

// TestStreamerSnapshotResume is the durable-state property: snapshotting a
// streamer at any point of the stream — with the state pushed through a
// JSON round trip, as the core state store does — and restoring it must
// produce exactly the window sequence of the uninterrupted run (which
// TestStreamerMatchesCompose pins to Compose). Splits at every index cover
// the edge positions: before the anchor, mid-window, and on window
// boundaries.
func TestStreamerSnapshotResume(t *testing.T) {
	configs := []WindowConfig{
		{Duration: time.Minute, Shift: time.Minute},
		{Duration: time.Minute, Shift: 30 * time.Second},
		{Duration: 90 * time.Second, Shift: 10 * time.Second},
	}
	txs := windowCorpus()
	v := Build(txs)
	for _, cfg := range configs {
		want, err := Compose(v, cfg, txs, "x")
		if err != nil {
			t.Fatalf("Compose: %v", err)
		}
		for split := 0; split <= len(txs); split++ {
			st, err := NewStreamer(v, cfg, "x")
			if err != nil {
				t.Fatal(err)
			}
			var got []Window
			for _, x := range txs[:split] {
				ws, err := st.Add(x)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, ws...)
			}
			blob, err := json.Marshal(st.Snapshot())
			if err != nil {
				t.Fatalf("marshal state: %v", err)
			}
			var state StreamerState
			if err := json.Unmarshal(blob, &state); err != nil {
				t.Fatalf("unmarshal state: %v", err)
			}
			resumed, err := RestoreStreamer(v, cfg, state)
			if err != nil {
				t.Fatalf("RestoreStreamer at split %d: %v", split, err)
			}
			for _, x := range txs[split:] {
				ws, err := resumed.Add(x)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, ws...)
			}
			got = append(got, resumed.Close()...)
			if len(got) != len(want) {
				t.Fatalf("%v split %d: %d windows, want %d", cfg, split, len(got), len(want))
			}
			for i := range got {
				if !got[i].Start.Equal(want[i].Start) || !got[i].End.Equal(want[i].End) ||
					got[i].Count != want[i].Count || got[i].Vector.Key() != want[i].Vector.Key() {
					t.Errorf("%v split %d: window %d differs: %+v vs %+v", cfg, split, i, got[i], want[i])
				}
			}
			if resumed.Emitted() != len(want) {
				t.Errorf("%v split %d: Emitted = %d, want %d (emit count not restored)",
					cfg, split, resumed.Emitted(), len(want))
			}
		}
	}
}

// TestRestoreStreamerRejectsCorruptState covers the validation paths of
// RestoreStreamer.
func TestRestoreStreamerRejectsCorruptState(t *testing.T) {
	txs := windowCorpus()
	v := Build(txs)
	cfg := WindowConfig{Duration: time.Minute, Shift: 30 * time.Second}
	st, err := NewStreamer(v, cfg, "x")
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range txs {
		if _, err := st.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	good := st.Snapshot()

	if _, err := RestoreStreamer(v, WindowConfig{}, good); err == nil {
		t.Error("invalid window config accepted")
	}
	bad := good
	bad.NextIdx = -1
	if _, err := RestoreStreamer(v, cfg, bad); err == nil {
		t.Error("negative next index accepted")
	}
	bad = good
	bad.Anchor = nil
	if _, err := RestoreStreamer(v, cfg, bad); err == nil {
		t.Error("anchored state without anchor accepted")
	}
	bad = good
	bad.Anchored = false
	if _, err := RestoreStreamer(v, cfg, bad); err == nil {
		t.Error("unanchored state with buffered transactions accepted")
	}
	if len(good.Buffered) >= 2 {
		bad = good
		bad.Buffered = append([]weblog.Transaction(nil), good.Buffered...)
		bad.Buffered[0], bad.Buffered[1] = bad.Buffered[1], bad.Buffered[0]
		if bad.Buffered[0].Timestamp.Equal(bad.Buffered[1].Timestamp) {
			t.Skip("corpus buffer lacks distinct timestamps for the order check")
		}
		if _, err := RestoreStreamer(v, cfg, bad); err == nil {
			t.Error("out-of-order buffer accepted")
		}
	}
	bad = good
	earlier := *good.Anchor
	earlier.Timestamp = good.Buffered[len(good.Buffered)-1].Timestamp.Add(-time.Hour)
	bad.LastSeen = &earlier
	if _, err := RestoreStreamer(v, cfg, bad); err == nil {
		t.Error("last-seen before buffered tail accepted")
	}
	if tail := good.Buffered[len(good.Buffered)-1].Timestamp; tail.After(good.Anchor.Timestamp) {
		atAnchor := *good.Anchor
		bad.LastSeen = &atAnchor
		if _, err := RestoreStreamer(v, cfg, bad); err == nil {
			t.Error("last-seen after the anchor but before buffered tail accepted")
		}
	}
	bad = good
	beforeAnchor := *good.Anchor
	beforeAnchor.Timestamp = good.Anchor.Timestamp.Add(-time.Nanosecond)
	bad.Anchor, bad.LastSeen, bad.Buffered = good.Anchor, &beforeAnchor, nil
	if _, err := RestoreStreamer(v, cfg, bad); err == nil {
		t.Error("last-seen before the anchor accepted")
	}
	// A window position behind the last-seen transaction (Add never
	// leaves one) is refused: resuming it would walk every window in
	// between, centuries of them for a corrupt last-seen stamp.
	for _, next := range []int{good.NextIdx - 1, good.NextIdx + 1} {
		bad = good
		bad.NextIdx = next
		if _, err := RestoreStreamer(v, cfg, bad); err == nil {
			t.Errorf("next window %d accepted for a state at %d", next, good.NextIdx)
		}
	}
	bad = good
	farLast := *good.LastSeen
	farLast.Timestamp = farLast.Timestamp.Add(200 * 365 * 24 * time.Hour)
	bad.LastSeen = &farLast
	if _, err := RestoreStreamer(v, cfg, bad); err == nil {
		t.Error("last-seen centuries past the state's window accepted")
	}

	// A closed streamer's state restores closed: Add must keep failing.
	st.Close()
	resumed, err := RestoreStreamer(v, cfg, st.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Add(txs[len(txs)-1]); err == nil {
		t.Error("Add accepted on a restored closed streamer")
	}
}

func TestStreamerRejectsOutOfOrder(t *testing.T) {
	txs := windowCorpus()
	v := Build(txs)
	st, err := NewStreamer(v, WindowConfig{Duration: time.Minute, Shift: time.Minute}, "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Add(txs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Add(txs[0]); err == nil {
		t.Error("accepted out-of-order transaction")
	}
}

func TestStreamerCloseIdempotent(t *testing.T) {
	v := Build(nil)
	st, err := NewStreamer(v, WindowConfig{Duration: time.Minute, Shift: time.Minute}, "x")
	if err != nil {
		t.Fatal(err)
	}
	if ws := st.Close(); ws != nil {
		t.Errorf("Close on empty streamer: %v", ws)
	}
	if ws := st.Close(); ws != nil {
		t.Errorf("second Close: %v", ws)
	}
	if _, err := st.Add(windowCorpus()[0]); err == nil {
		t.Error("Add after Close succeeded")
	}
}

func TestVectorsProjection(t *testing.T) {
	txs := windowCorpus()
	v := Build(txs)
	ws, err := Compose(v, WindowConfig{Duration: time.Minute, Shift: time.Minute}, txs, "x")
	if err != nil {
		t.Fatal(err)
	}
	vecs := Vectors(ws)
	if len(vecs) != len(ws) {
		t.Fatalf("got %d vectors", len(vecs))
	}
	for i := range vecs {
		if vecs[i].Key() != ws[i].Vector.Key() {
			t.Errorf("vector %d differs", i)
		}
	}
}

func TestGroupString(t *testing.T) {
	if GroupAction.String() != "http action" || GroupAppType.String() != "application type" {
		t.Error("group names wrong")
	}
	if Group(99).String() != "group(99)" {
		t.Error("out-of-range group name wrong")
	}
}

func TestVocabularyExtend(t *testing.T) {
	base := Build(corpus())
	// New transactions introduce a category, a media type and an app the
	// base never saw.
	fresh := []weblog.Transaction{
		tx(0, "user_3", "Travel", "Spotify", taxonomy.MediaType{Super: "audio", Sub: "mp3"}, taxonomy.MinimalRisk),
	}
	ext := base.Extend(fresh)
	if ext.Size() <= base.Size() {
		t.Fatalf("extended size %d not larger than base %d", ext.Size(), base.Size())
	}
	// Base columns keep their ids: every base-corpus transaction extracts
	// identically under both vocabularies.
	c := corpus()
	for i := range c {
		a, b := base.Extract(&c[i]), ext.Extract(&c[i])
		if a.Key() != b.Key() {
			t.Errorf("transaction %d extracts differently after Extend", i)
		}
	}
	// The fresh transaction gains columns under the extended vocabulary.
	before := base.Extract(&fresh[0]).NNZ()
	after := ext.Extract(&fresh[0]).NNZ()
	if after <= before {
		t.Errorf("fresh transaction NNZ %d -> %d, want growth", before, after)
	}
	// Group counts reflect the additions.
	baseCounts, _ := base.GroupCounts()
	extCounts, _ := ext.GroupCounts()
	if extCounts[5] != baseCounts[5]+1 { // category group
		t.Errorf("category count %d -> %d", baseCounts[5], extCounts[5])
	}
	// Extending with nothing new is a no-op size-wise.
	same := ext.Extend(fresh)
	if same.Size() != ext.Size() {
		t.Errorf("no-op extend grew vocabulary: %d -> %d", ext.Size(), same.Size())
	}
}

func TestVocabularyExtendJSONRoundTrip(t *testing.T) {
	base := Build(corpus())
	fresh := []weblog.Transaction{
		tx(0, "user_3", "Travel", "Spotify", taxonomy.MediaType{Super: "audio", Sub: "mp3"}, taxonomy.MinimalRisk),
	}
	ext := base.Extend(fresh)
	data, err := json.Marshal(ext)
	if err != nil {
		t.Fatal(err)
	}
	var back Vocabulary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Size() != ext.Size() {
		t.Fatalf("size drift %d != %d", back.Size(), ext.Size())
	}
	probe := append(corpus(), fresh...)
	for i := range probe {
		if ext.Extract(&probe[i]).Key() != back.Extract(&probe[i]).Key() {
			t.Errorf("transaction %d extracts differently after round trip", i)
		}
	}
}

func TestComposeCountConservation(t *testing.T) {
	// With S == D (non-overlapping windows), every transaction lands in
	// exactly one window: window counts must sum to the input length.
	f := func(gaps []uint16) bool {
		if len(gaps) == 0 || len(gaps) > 200 {
			return true
		}
		txs := make([]weblog.Transaction, len(gaps))
		ts := t0
		for i, gp := range gaps {
			ts = ts.Add(time.Duration(gp%5000) * time.Millisecond)
			txs[i] = tx(ts.Sub(t0), "u", "Games", "Rhapsody",
				taxonomy.MediaType{Super: "text", Sub: "html"}, taxonomy.MinimalRisk)
		}
		v := Build(txs)
		ws, err := Compose(v, WindowConfig{Duration: time.Minute, Shift: time.Minute}, txs, "u")
		if err != nil {
			return false
		}
		total := 0
		for i := range ws {
			total += ws[i].Count
		}
		return total == len(txs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestComposeOverlapCountConservation(t *testing.T) {
	// With S = D/2, interior transactions appear in exactly two windows;
	// total window count is between n and 2n.
	f := func(gaps []uint16) bool {
		if len(gaps) < 2 || len(gaps) > 200 {
			return true
		}
		txs := make([]weblog.Transaction, len(gaps))
		ts := t0
		for i, gp := range gaps {
			ts = ts.Add(time.Duration(gp%3000) * time.Millisecond)
			txs[i] = tx(ts.Sub(t0), "u", "Games", "Rhapsody",
				taxonomy.MediaType{Super: "text", Sub: "html"}, taxonomy.MinimalRisk)
		}
		v := Build(txs)
		ws, err := Compose(v, WindowConfig{Duration: time.Minute, Shift: 30 * time.Second}, txs, "u")
		if err != nil {
			return false
		}
		total := 0
		for i := range ws {
			total += ws[i].Count
		}
		return total >= len(txs) && total <= 2*len(txs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWindowVectorsValidate(t *testing.T) {
	// Every composed window vector satisfies the sparse invariants and
	// stays within the vocabulary dimensionality.
	txs := windowCorpus()
	v := Build(txs)
	ws, err := Compose(v, WindowConfig{Duration: time.Minute, Shift: 30 * time.Second}, txs, "u")
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		if err := ws[i].Vector.Validate(); err != nil {
			t.Errorf("window %d: %v", i, err)
		}
		if n := ws[i].Vector.NNZ(); n > 0 && int(ws[i].Vector.Idx[n-1]) >= v.Size() {
			t.Errorf("window %d exceeds vocabulary", i)
		}
	}
}
