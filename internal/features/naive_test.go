package features

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"webtxprofile/internal/features/windowtest"
	"webtxprofile/internal/sparse"
	"webtxprofile/internal/taxonomy"
	"webtxprofile/internal/weblog"
)

// naiveAdd is Streamer.Add with the step-by-step walk the window jump
// replaced: it visits every window ending at or before the arrival, one
// Shift at a time, empty or not, and extracts the arrival's record with
// the public Extract rather than the streamer's own record path. It drives
// the same Streamer internals (build, gc, the user table), so the
// differential tests below isolate the walk itself. It never terminates on
// a transaction past the Duration range — callers keep traces well inside
// it.
func naiveAdd(s *Streamer, tx weblog.Transaction) ([]Window, error) {
	if s.closed {
		return nil, fmt.Errorf("features: Add after Close")
	}
	if !s.anchored {
		s.anchored = true
		s.anchor = tx.Timestamp
	} else if tx.Timestamp.Before(s.lastSeen) {
		return nil, fmt.Errorf("features: out-of-order transaction at %v (last %v)",
			tx.Timestamp, s.lastSeen)
	}
	s.lastSeen = tx.Timestamp
	var out []Window
	for {
		start := s.anchor.Add(time.Duration(s.nextIdx) * s.cfg.Shift)
		end := start.Add(s.cfg.Duration)
		if tx.Timestamp.Before(end) {
			break
		}
		if w, ok := s.build(s.nextIdx); ok {
			out = append(out, w)
		}
		s.nextIdx++
		s.gc(s.nextIdx)
	}
	s.buf = append(s.buf, naiveRecord(s, &tx))
	return out, nil
}

// naiveRecord builds tx's buffered record from Extract's vector: each
// column goes to the group owning it, found by scanning the vocabulary's
// column names.
func naiveRecord(s *Streamer, tx *weblog.Transaction) Record {
	r := Record{Cols: noCols, Offset: tx.Timestamp.Sub(s.anchor)}
	x := s.vocab.Extract(tx)
	for k, c := range x.Idx {
		g := naiveGroup(s.vocab, int(c))
		r.Cols[g] = c
		if g == GroupReputationRisk {
			r.Risk = x.Val[k]
		}
	}
	r.User = s.userIndex(tx.UserID)
	return r
}

// naiveGroup returns the Table I group of column c, from its name.
func naiveGroup(v *Vocabulary, c int) Group {
	name := v.ColumnName(c)
	for prefix, g := range map[string]Group{
		"action:": GroupAction, "scheme:": GroupScheme, "category:": GroupCategory,
		"supertype:": GroupSuperType, "subtype:": GroupSubType, "application:": GroupAppType,
		"public-address-flag": GroupPublicFlag, "reputation-risk": GroupReputationRisk,
		"reputation-verified": GroupReputationVerified,
	} {
		if strings.HasPrefix(name, prefix) {
			return g
		}
	}
	panic("column " + name + " has no group")
}

// naiveClose is Streamer.Close with the step-by-step walk.
func naiveClose(s *Streamer) []Window {
	if s.closed || !s.anchored {
		s.closed = true
		return nil
	}
	s.closed = true
	var out []Window
	for {
		start := s.anchor.Add(time.Duration(s.nextIdx) * s.cfg.Shift)
		if start.After(s.lastSeen) {
			break
		}
		if w, ok := s.build(s.nextIdx); ok {
			out = append(out, w)
		}
		s.nextIdx++
		s.gc(s.nextIdx)
	}
	return out
}

// naiveCompose is Compose with the step-by-step walk over every window,
// empty or not (input assumed sorted).
func naiveCompose(vocab *Vocabulary, cfg WindowConfig, txs []weblog.Transaction, entity string) []Window {
	if len(txs) == 0 {
		return nil
	}
	var windows []Window
	acc := sparse.NewAccumulator(vocab.NumericCols())
	var scratch sparse.Vector
	t0 := txs[0].Timestamp
	last := txs[len(txs)-1].Timestamp
	lo := 0
	for k := 0; ; k++ {
		start := t0.Add(time.Duration(k) * cfg.Shift)
		if start.After(last) {
			break
		}
		end := start.Add(cfg.Duration)
		for lo < len(txs) && txs[lo].Timestamp.Before(start) {
			lo++
		}
		if lo >= len(txs) {
			break
		}
		acc.Reset()
		users := make(map[string]int)
		for i := lo; i < len(txs) && txs[i].Timestamp.Before(end); i++ {
			vocab.ExtractInto(&txs[i], &scratch)
			acc.Add(scratch)
			users[txs[i].UserID]++
		}
		if acc.Count() == 0 {
			continue
		}
		windows = append(windows, Window{
			Start:      start,
			End:        end,
			Vector:     acc.Vector(),
			Count:      acc.Count(),
			Entity:     entity,
			UserCounts: users,
		})
	}
	return windows
}

// diffConfigs covers S dividing D, S = D, and S not dividing D.
var diffConfigs = []WindowConfig{
	{Duration: time.Minute, Shift: 30 * time.Second},
	{Duration: time.Minute, Shift: time.Minute},
	{Duration: 90 * time.Second, Shift: 20 * time.Second},
	{Duration: 10 * time.Second, Shift: 4 * time.Second},
}

// traceTx returns a transaction at ts whose features vary with i, so
// windows differ in vector, count and user mix.
func traceTx(ts time.Time, i int) weblog.Transaction {
	cats := []string{"Games", "News", "Travel"}
	apps := []string{"Rhapsody", "CloudFlare", ""}
	media := []taxonomy.MediaType{{Super: "text", Sub: "html"}, {Super: "video", Sub: "mp4"}, {}}
	reps := []taxonomy.Reputation{taxonomy.MinimalRisk, taxonomy.MediumRisk, taxonomy.Unverified}
	tr := tx(0, fmt.Sprintf("user_%d", i%3), cats[i%3], apps[(i/3)%3], media[(i/2)%3], reps[(i/5)%3])
	tr.Timestamp = ts
	return tr
}

// gapTrace draws an n-transaction trace from rng, with every gap shape of
// windowtest.NextTimestamp, and records per transaction whether the
// streamer under test is checkpointed and restored (through JSON) right
// after it.
func gapTrace(rng *rand.Rand, cfg WindowConfig, n int) ([]weblog.Transaction, []bool) {
	txs := make([]weblog.Transaction, n)
	resume := make([]bool, n)
	ts := t0
	for i := range txs {
		if i > 0 {
			ts = windowtest.NextTimestamp(cfg.Duration, cfg.Shift, t0, ts, rng.Intn(windowtest.GapClasses), byte(rng.Intn(256)))
		}
		txs[i] = traceTx(ts, i)
		resume[i] = rng.Intn(3) == 0
	}
	return txs, resume
}

// checkAgainstNaive compares Compose and Streamer with the naive walkers
// on one trace: the composed windows against naiveCompose's batch walk,
// which extracts every transaction afresh for each window; per Add the
// returned windows, Emitted() and the JSON-encoded snapshot; then Close
// the same way. The streamer under test is replaced by one restored from
// its round-tripped snapshot after every transaction marked in resume.
func checkAgainstNaive(t *testing.T, cfg WindowConfig, txs []weblog.Transaction, resume []bool) {
	t.Helper()
	vocab := Build(txs)
	composed, err := Compose(vocab, cfg, txs, "x")
	if err != nil {
		t.Fatalf("%v: Compose: %v", cfg, err)
	}
	if want := naiveCompose(vocab, cfg, txs, "x"); !reflect.DeepEqual(composed, want) {
		t.Fatalf("%v: Compose gave %d windows, naive walk %d (or contents differ)", cfg, len(composed), len(want))
	}

	s, err := NewStreamer(vocab, cfg, "x")
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := NewStreamer(vocab, cfg, "x")
	var streamed []Window
	compare := func(step string, got, want []Window) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v %s: streamer emitted %d windows, naive walk %d (or contents differ)", cfg, step, len(got), len(want))
		}
		if s.Emitted() != ref.Emitted() {
			t.Fatalf("%v %s: Emitted() = %d, naive walk %d", cfg, step, s.Emitted(), ref.Emitted())
		}
		gotState, err := json.Marshal(s.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		wantState, _ := json.Marshal(ref.Snapshot())
		if !bytes.Equal(gotState, wantState) {
			t.Fatalf("%v %s: snapshot\n got %s\nwant %s", cfg, step, gotState, wantState)
		}
		streamed = append(streamed, got...)
	}
	for i := range txs {
		got, err := s.Add(txs[i])
		if err != nil {
			t.Fatalf("%v: Add(tx %d): %v", cfg, i, err)
		}
		want, _ := naiveAdd(ref, txs[i])
		compare(fmt.Sprintf("tx %d at +%v", i, txs[i].Timestamp.Sub(txs[0].Timestamp)), got, want)
		if resume[i] {
			blob, _ := json.Marshal(s.Snapshot())
			var st StreamerState
			if err := json.Unmarshal(blob, &st); err != nil {
				t.Fatal(err)
			}
			if s, err = RestoreStreamer(vocab, cfg, st); err != nil {
				t.Fatalf("%v: RestoreStreamer after tx %d: %v", cfg, i, err)
			}
		}
	}
	compare("Close", s.Close(), naiveClose(ref))
	if !reflect.DeepEqual(streamed, composed) {
		t.Fatalf("%v: streamer emitted %d windows in all, Compose %d", cfg, len(streamed), len(composed))
	}
	if s.Emitted() != len(composed) {
		t.Fatalf("%v: Emitted() = %d after Close, want %d", cfg, s.Emitted(), len(composed))
	}
}

// TestWindowingMatchesNaive is the differential property test for the
// window jump: on seeded traces mixing every gap shape (no gap up to days,
// exact window boundaries, exact multiples of D and S) under every
// diffConfigs shape, Compose and Streamer — windows, Emitted() and every
// snapshot — match the step-by-step walk. Replay a failure with the
// logged WTP_WINDOW_SEED.
func TestWindowingMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(windowtest.Seed(t)))
	for _, cfg := range diffConfigs {
		for trial := 0; trial < 12; trial++ {
			txs, resume := gapTrace(rng, cfg, 1+rng.Intn(60))
			checkAgainstNaive(t, cfg, txs, resume)
		}
	}
}

// TestStreamerMatchesCompose runs the hand-written windowCorpus through
// checkAgainstNaive under S = D, S dividing D, and D = 90s with S = 10s
// (a shape no diffConfigs entry has): the Streamer fed one transaction at
// a time and Compose emit the naive walk's windows, and Emitted() counts
// them after Close.
func TestStreamerMatchesCompose(t *testing.T) {
	for _, cfg := range []WindowConfig{
		{Duration: time.Minute, Shift: time.Minute},
		{Duration: time.Minute, Shift: 30 * time.Second},
		{Duration: 90 * time.Second, Shift: 10 * time.Second},
	} {
		txs := windowCorpus()
		checkAgainstNaive(t, cfg, txs, make([]bool, len(txs)))
	}
}

// fuzzTrace decodes a fuzz input into a configuration and a trace: the
// first byte picks the configuration, then every two bytes add one
// transaction — a gap class (low bits) with a checkpoint-restore flag
// (high bit) and a magnitude.
func fuzzTrace(data []byte) (WindowConfig, []weblog.Transaction, []bool) {
	if len(data) == 0 {
		return diffConfigs[0], nil, nil
	}
	cfg := diffConfigs[int(data[0])%len(diffConfigs)]
	data = data[1:]
	const maxTxs = 32
	var txs []weblog.Transaction
	var resume []bool
	ts := t0
	for i := 0; len(data) >= 2 && i < maxTxs; i, data = i+1, data[2:] {
		if i > 0 {
			ts = windowtest.NextTimestamp(cfg.Duration, cfg.Shift, t0, ts, int(data[0]&0x7f)%windowtest.GapClasses, data[1])
		}
		txs = append(txs, traceTx(ts, i))
		resume = append(resume, data[0]&0x80 != 0)
	}
	return cfg, txs, resume
}

// streamerNaiveSeeds is the FuzzStreamerMatchesNaive seed corpus: every
// configuration, every gap class, and restores at both ends of a trace.
func streamerNaiveSeeds() [][]byte {
	var seeds [][]byte
	for c := range diffConfigs {
		all := []byte{byte(c), 0x80, 0}
		for class := 0; class < windowtest.GapClasses; class++ {
			all = append(all, byte(class), byte(37*class+c))
		}
		seeds = append(seeds, all)
	}
	return append(seeds,
		[]byte{},
		[]byte{1, 0x80, 0},
		[]byte{2, 0, 0, 2, 0, 2, 0, 0x82, 0, 8, 255, 0x88, 255, 5, 1},
		[]byte{3, 0, 0, 4, 0, 4, 1, 0x84, 2, 5, 0, 5, 2, 0x83, 7, 3, 200},
	)
}

// FuzzStreamerMatchesNaive drives checkAgainstNaive from arbitrary bytes.
func FuzzStreamerMatchesNaive(f *testing.F) {
	for _, seed := range streamerNaiveSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, txs, resume := fuzzTrace(data)
		checkAgainstNaive(t, cfg, txs, resume)
	})
}

// TestRegenerateStreamerNaiveCorpus rewrites
// testdata/fuzz/FuzzStreamerMatchesNaive from streamerNaiveSeeds when
// WTP_REGEN_CORPUS=1, so the checked-in corpus never drifts from the
// seeds. Normally it only verifies the files exist.
func TestRegenerateStreamerNaiveCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzStreamerMatchesNaive")
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
		for i, seed := range streamerNaiveSeeds() {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz corpus missing (run with WTP_REGEN_CORPUS=1 to create): %v", err)
	}
	if len(entries) < len(streamerNaiveSeeds()) {
		t.Errorf("corpus has %d entries, want >= %d", len(entries), len(streamerNaiveSeeds()))
	}
}

// TestStreamerLongGap pins the cost model: with D=2ms, S=1ms, two
// transactions 30 days apart sit 2.6·10⁹ windows apart — minutes of
// stepping for a window-by-window walk. The jump must finish at once,
// emit only the first transaction's window on the second arrival, and
// land NextIdx where the walk would have.
func TestStreamerLongGap(t *testing.T) {
	cfg := WindowConfig{Duration: 2 * time.Millisecond, Shift: time.Millisecond}
	const gap = 30 * 24 * time.Hour
	txs := []weblog.Transaction{traceTx(t0, 0), traceTx(t0.Add(gap), 1)}
	vocab := Build(txs)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s, err := NewStreamer(vocab, cfg, "x")
		if err != nil {
			t.Error(err)
			return
		}
		if ws, err := s.Add(txs[0]); err != nil || len(ws) != 0 {
			t.Errorf("first Add: %d windows, %v", len(ws), err)
		}
		ws, err := s.Add(txs[1])
		if err != nil {
			t.Errorf("second Add: %v", err)
			return
		}
		if len(ws) != 1 || !ws[0].Start.Equal(t0) || ws[0].Count != 1 {
			t.Errorf("second Add emitted %+v, want the first transaction's window only", ws)
		}
		if got, want := s.Snapshot().NextIdx, int(gap/cfg.Shift)-1; got != want || s.Emitted() != 1 {
			t.Errorf("NextIdx = %d, Emitted = %d; want %d, 1", got, s.Emitted(), want)
		}
		if ws := s.Close(); len(ws) != 2 {
			t.Errorf("Close emitted %d windows, want the 2 holding the second transaction", len(ws))
		}
		if ws, err := Compose(vocab, cfg, txs, "x"); err != nil || len(ws) != 3 {
			t.Errorf("Compose: %d windows, %v; want 3", len(ws), err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("composing across a 30-day gap did not finish in 10s")
	}
}

// TestFarFutureTimestampRejected feeds a parseable year-9999 log line — a
// corrupt timestamp more than time.Duration's ~292 years past the anchor,
// where window offsets can no longer be indexed. Streamer.Add and Compose
// must fail with ErrWindowRange rather than loop or panic, the streamer
// must be left exactly as it was and keep working, and a snapshot whose
// last-seen lies that far out must not restore.
func TestFarFutureTimestampRejected(t *testing.T) {
	cfg := WindowConfig{Duration: time.Minute, Shift: 30 * time.Second}
	good := []weblog.Transaction{traceTx(t0, 0), traceTx(t0.Add(45*time.Second), 1), traceTx(t0.Add(3*time.Minute), 2)}
	bad, err := weblog.ParseLine(traceTx(time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC), 3).MarshalLine())
	if err != nil {
		t.Fatalf("year-9999 line does not parse: %v", err)
	}
	vocab := Build(good)

	s, _ := NewStreamer(vocab, cfg, "x")
	ref, _ := NewStreamer(vocab, cfg, "x")
	if _, err := s.Add(good[0]); err != nil {
		t.Fatal(err)
	}
	ref.Add(good[0])
	before, _ := json.Marshal(s.Snapshot())
	if _, err := s.Add(bad); !errors.Is(err, ErrWindowRange) {
		t.Fatalf("Add(year 9999) = %v, want ErrWindowRange", err)
	}
	if after, _ := json.Marshal(s.Snapshot()); !bytes.Equal(before, after) {
		t.Fatalf("rejected Add changed the state:\nbefore %s\n after %s", before, after)
	}
	for _, tr := range good[1:] {
		got, err := s.Add(tr)
		if err != nil {
			t.Fatalf("Add after the rejected transaction: %v", err)
		}
		if want, _ := ref.Add(tr); !reflect.DeepEqual(got, want) {
			t.Fatalf("windows after the rejected transaction drifted: got %d, want %d", len(got), len(want))
		}
	}
	if got, want := s.Close(), ref.Close(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Close after the rejected transaction drifted: got %d, want %d", len(got), len(want))
	}

	if _, err := Compose(vocab, cfg, append(append([]weblog.Transaction(nil), good...), bad), "x"); !errors.Is(err, ErrWindowRange) {
		t.Fatalf("Compose with a year-9999 transaction = %v, want ErrWindowRange", err)
	}

	st := ref.Snapshot()
	st.LastSeen = bad.Timestamp
	if _, err := RestoreStreamer(vocab, cfg, st); !errors.Is(err, ErrWindowRange) {
		t.Fatalf("RestoreStreamer with a year-9999 last-seen = %v, want ErrWindowRange", err)
	}
}

// TestFirstWindowEndingAfter pins the closed form against its definition
// — the smallest k with anchor + k·S + D > t — on every shape of
// diffConfigs, around window boundaries and across long spans.
func TestFirstWindowEndingAfter(t *testing.T) {
	for _, cfg := range diffConfigs {
		for _, off := range []time.Duration{
			-time.Second, 0, 1, cfg.Shift - 1, cfg.Shift, cfg.Duration - 1, cfg.Duration, cfg.Duration + 1,
			cfg.Duration + cfg.Shift - 1, cfg.Duration + cfg.Shift, 7*cfg.Shift + cfg.Duration - 1,
			7*cfg.Shift + cfg.Duration, 24 * time.Hour, 200 * 365 * 24 * time.Hour,
		} {
			k, err := cfg.FirstWindowEndingAfter(t0, t0.Add(off))
			if err != nil {
				t.Fatalf("%v offset %v: %v", cfg, off, err)
			}
			end := func(k int) time.Time { return t0.Add(time.Duration(k)*cfg.Shift + cfg.Duration) }
			if !end(k).After(t0.Add(off)) || (k > 0 && end(k-1).After(t0.Add(off))) {
				t.Errorf("%v offset %v: k = %d is not the first window ending after it", cfg, off, k)
			}
		}
	}
	if _, err := diffConfigs[0].FirstWindowEndingAfter(t0, t0.AddDate(300, 0, 0)); !errors.Is(err, ErrWindowRange) {
		t.Errorf("300 years past the anchor: %v, want ErrWindowRange", err)
	}
}
