package weblog

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"webtxprofile/internal/taxonomy"
)

var t0 = time.Date(2015, 5, 29, 5, 5, 4, 0, time.UTC)

func sampleTx(i int) Transaction {
	actions := taxonomy.Actions
	schemes := taxonomy.Schemes
	reps := taxonomy.Reputations
	return Transaction{
		Timestamp:  t0.Add(time.Duration(i) * 13 * time.Second),
		Host:       "www.inlinegames.com",
		Scheme:     schemes[i%len(schemes)],
		Action:     actions[i%len(actions)],
		UserID:     "user_9",
		SourceIP:   "10.0.0.17",
		Category:   "Games",
		MediaType:  taxonomy.MediaType{Super: "text", Sub: "html"},
		AppType:    "Rhapsody",
		Reputation: reps[i%len(reps)],
		Private:    i%3 == 0,
	}
}

func TestLineRoundTrip(t *testing.T) {
	for i := 0; i < 8; i++ {
		tx := sampleTx(i)
		line := tx.MarshalLine()
		back, err := ParseLine(line)
		if err != nil {
			t.Fatalf("ParseLine(%q): %v", line, err)
		}
		if !reflect.DeepEqual(tx, back) {
			t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", tx, back)
		}
	}
}

// genTx generates random valid transactions for property tests.
type genTx Transaction

func (genTx) Generate(r *rand.Rand, _ int) reflect.Value {
	tx := Transaction{
		Timestamp:  t0.Add(time.Duration(r.Int63n(1e6)) * time.Millisecond),
		Host:       "host" + string(rune('a'+r.Intn(26))) + ".example.com",
		Scheme:     taxonomy.Schemes[r.Intn(2)],
		Action:     taxonomy.Actions[r.Intn(4)],
		UserID:     "user_" + string(rune('0'+r.Intn(10))),
		SourceIP:   "10.0.0." + string(rune('1'+r.Intn(9))),
		Category:   "Games",
		AppType:    "CloudFlare",
		Reputation: taxonomy.Reputations[r.Intn(4)],
		Private:    r.Intn(2) == 0,
	}
	if r.Intn(4) != 0 {
		tx.MediaType = taxonomy.MediaType{Super: "video", Sub: "mp4"}
	}
	return reflect.ValueOf(genTx(tx))
}

func TestLineRoundTripProperty(t *testing.T) {
	f := func(g genTx) bool {
		tx := Transaction(g)
		back, err := ParseLine(tx.MarshalLine())
		return err == nil && reflect.DeepEqual(tx, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseLineRejectsMalformed(t *testing.T) {
	// sampleTx(1) carries scheme HTTPS, action POST, reputation
	// minimal-risk and visibility public, so every replacement below
	// actually corrupts the line.
	good := sampleTx(1).MarshalLine()
	bad := []string{
		"",
		"only, three, fields",
		strings.Replace(good, "2015", "not-a-year", 1),
		strings.Replace(good, "POST", "FETCH", 1),
		strings.Replace(good, "HTTPS", "GOPHER", 1),
		strings.Replace(good, "minimal-risk", "who-knows", 1),
		strings.Replace(good, "public", "hidden", 1),
	}
	for _, line := range bad {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("ParseLine accepted %q", line)
		}
	}
}

func TestValidate(t *testing.T) {
	tx := sampleTx(1)
	if err := tx.Validate(); err != nil {
		t.Fatalf("valid transaction rejected: %v", err)
	}
	mutations := map[string]func(*Transaction){
		"zero timestamp": func(x *Transaction) { x.Timestamp = time.Time{} },
		"empty host":     func(x *Transaction) { x.Host = "" },
		"bad scheme":     func(x *Transaction) { x.Scheme = "FTP" },
		"bad action":     func(x *Transaction) { x.Action = "PUT" },
		"empty user":     func(x *Transaction) { x.UserID = "" },
		"empty source":   func(x *Transaction) { x.SourceIP = "" },
		"bad reputation": func(x *Transaction) { x.Reputation = taxonomy.Reputation(42) },
	}
	// A log delimiter in any free-text field, at its start, middle or end.
	fields := map[string]func(*Transaction) *string{
		"host":     func(x *Transaction) *string { return &x.Host },
		"user":     func(x *Transaction) *string { return &x.UserID },
		"source":   func(x *Transaction) *string { return &x.SourceIP },
		"category": func(x *Transaction) *string { return &x.Category },
		"app type": func(x *Transaction) *string { return &x.AppType },
	}
	for field, at := range fields {
		for _, d := range []string{",", "\n"} {
			for i, pos := range []string{"start", "middle", "end"} {
				mutations[fmt.Sprintf("%q at %s of %s", d, pos, field)] = func(x *Transaction) {
					f := at(x)
					*f = (*f)[:i*len(*f)/2] + d + (*f)[i*len(*f)/2:]
				}
			}
		}
	}
	for name, mutate := range mutations {
		x := sampleTx(1)
		mutate(&x)
		if err := x.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid transaction", name)
		}
	}
	// Multi-byte and invalid UTF-8 around the delimiters: Validate rejects
	// exactly what strings.ContainsAny(field, ",\n") finds.
	for _, v := range []string{"é", "日本", "\xff\xfe", "a\xc3", "\xe2\x80,", "\r", "\t;", "user\u2028", "\x2c", "\xc0\x8a"} {
		x := sampleTx(1)
		x.AppType = v
		if rejected, want := x.Validate() != nil, strings.ContainsAny(v, ",\n"); rejected != want {
			t.Errorf("AppType %q: rejected %v, want %v", v, rejected, want)
		}
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const n = 100
	for i := 0; i < n; i++ {
		tx := sampleTx(i)
		if err := w.Write(tx); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if w.Count() != n {
		t.Errorf("Count = %d, want %d", w.Count(), n)
	}
	if !strings.HasPrefix(buf.String(), "#") {
		t.Error("output missing header line")
	}

	r := NewReader(&buf)
	ds, err := r.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if ds.Len() != n {
		t.Fatalf("read %d records, want %d", ds.Len(), n)
	}
	for i := 0; i < n; i++ {
		want := sampleTx(i)
		if !reflect.DeepEqual(ds.Transactions[i], want) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReaderSkipsCommentsAndBlanks(t *testing.T) {
	tx := sampleTx(0)
	input := "# comment\n\n" + tx.MarshalLine() + "\n\n# trailing\n"
	r := NewReader(strings.NewReader(input))
	got, err := r.Read()
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(got, tx) {
		t.Error("transaction mismatch")
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("want io.EOF, got %v", err)
	}
}

func TestReaderReportsLineNumber(t *testing.T) {
	input := "# header\ngarbage line\n"
	r := NewReader(strings.NewReader(input))
	_, err := r.Read()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line-2 error, got %v", err)
	}
}

func buildDataset(usersTx map[string]int) *Dataset {
	ds := NewDataset()
	i := 0
	for _, u := range []string{"user_1", "user_2", "user_3"} {
		n, ok := usersTx[u]
		if !ok {
			continue
		}
		for k := 0; k < n; k++ {
			tx := sampleTx(i)
			tx.UserID = u
			tx.SourceIP = "10.0.0." + u[len(u)-1:]
			ds.Add(tx)
			i++
		}
	}
	ds.SortByTime()
	return ds
}

func TestDatasetViews(t *testing.T) {
	ds := buildDataset(map[string]int{"user_1": 10, "user_2": 5, "user_3": 1})
	if got := ds.Users(); !reflect.DeepEqual(got, []string{"user_1", "user_2", "user_3"}) {
		t.Errorf("Users = %v", got)
	}
	if ds.UserCount("user_1") != 10 || ds.UserCount("user_2") != 5 {
		t.Error("UserCount wrong")
	}
	if got := len(ds.UserTransactions("user_2")); got != 5 {
		t.Errorf("UserTransactions(user_2) len = %d", got)
	}
	if got := len(ds.HostTransactions("10.0.0.2")); got != 5 {
		t.Errorf("HostTransactions len = %d", got)
	}
	for i, tx := range ds.UserTransactions("user_1") {
		if tx.UserID != "user_1" {
			t.Fatalf("record %d belongs to %s", i, tx.UserID)
		}
	}
}

func TestFilterMinTransactions(t *testing.T) {
	ds := buildDataset(map[string]int{"user_1": 10, "user_2": 5, "user_3": 1})
	kept, dropped := ds.FilterMinTransactions(5)
	if !reflect.DeepEqual(dropped, []string{"user_3"}) {
		t.Errorf("dropped = %v", dropped)
	}
	if kept.Len() != 15 {
		t.Errorf("kept %d transactions", kept.Len())
	}
	if got := kept.Users(); !reflect.DeepEqual(got, []string{"user_1", "user_2"}) {
		t.Errorf("kept users = %v", got)
	}
}

func TestSplitChronological(t *testing.T) {
	ds := buildDataset(map[string]int{"user_1": 8, "user_2": 4})
	train, test, err := ds.SplitChronological(0.75)
	if err != nil {
		t.Fatalf("SplitChronological: %v", err)
	}
	if train.UserCount("user_1") != 6 || test.UserCount("user_1") != 2 {
		t.Errorf("user_1 split %d/%d", train.UserCount("user_1"), test.UserCount("user_1"))
	}
	if train.UserCount("user_2") != 3 || test.UserCount("user_2") != 1 {
		t.Errorf("user_2 split %d/%d", train.UserCount("user_2"), test.UserCount("user_2"))
	}
	// Chronology: every train transaction of a user precedes every test one.
	for _, u := range []string{"user_1", "user_2"} {
		tr, te := train.UserTransactions(u), test.UserTransactions(u)
		if tr[len(tr)-1].Timestamp.After(te[0].Timestamp) {
			t.Errorf("%s: train overlaps test in time", u)
		}
	}
	if _, _, err := ds.SplitChronological(1.5); err == nil {
		t.Error("accepted fraction > 1")
	}
}

func TestSplitAtTime(t *testing.T) {
	ds := buildDataset(map[string]int{"user_1": 10})
	cut := ds.Transactions[5].Timestamp
	obs, sub := ds.SplitAtTime(cut)
	if obs.Len() != 5 || sub.Len() != 5 {
		t.Errorf("split %d/%d, want 5/5", obs.Len(), sub.Len())
	}
	for i := range obs.Transactions {
		if !obs.Transactions[i].Timestamp.Before(cut) {
			t.Error("observed contains transaction at/after cut")
		}
	}
}

func TestComputeStats(t *testing.T) {
	ds := buildDataset(map[string]int{"user_1": 10, "user_2": 5, "user_3": 1})
	s := ds.ComputeStats()
	if s.Transactions != 16 || s.Users != 3 || s.Hosts != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.MinPerUser != 1 || s.MedianPerUser != 5 || s.MaxPerUser != 10 {
		t.Errorf("per-user stats = %+v", s)
	}
	if s.UsersPerHost != 1 || s.HostsPerUserMin != 1 || s.HostsPerUserMax != 1 {
		t.Errorf("sharing stats = %+v", s)
	}
}

func TestTimeSpan(t *testing.T) {
	ds := NewDataset()
	if _, _, ok := ds.TimeSpan(); ok {
		t.Error("empty dataset reported a time span")
	}
	ds = buildDataset(map[string]int{"user_1": 3})
	start, end, ok := ds.TimeSpan()
	if !ok || !start.Equal(t0) || !end.After(start) {
		t.Errorf("TimeSpan = %v..%v ok=%v", start, end, ok)
	}
}

func TestBusiestHost(t *testing.T) {
	ds := NewDataset()
	if _, ok := ds.BusiestHost(); ok {
		t.Error("empty dataset reported a busiest host")
	}
	ds = buildDataset(map[string]int{"user_1": 10, "user_2": 5})
	h, ok := ds.BusiestHost()
	if !ok || h != "10.0.0.1" {
		t.Errorf("busiest = %q ok=%v", h, ok)
	}
}
