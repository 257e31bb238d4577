package features

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"webtxprofile/internal/sparse"
	"webtxprofile/internal/weblog"
)

// TestExtractIntoMatchesExtract pins the scratch extractor to the
// allocating one across the corpus variants (including the zero media type
// and the unverified reputation, whose risk column is skipped).
func TestExtractIntoMatchesExtract(t *testing.T) {
	vocab := Build(corpus())
	var scratch sparse.Vector
	for i, tr := range corpus() {
		want := vocab.Extract(&tr)
		vocab.ExtractInto(&tr, &scratch)
		if !reflect.DeepEqual(want.Idx, scratch.Idx) || !reflect.DeepEqual(want.Val, scratch.Val) {
			t.Errorf("tx %d: ExtractInto %+v, Extract %+v", i, scratch, want)
		}
	}
}

// TestExtractIntoAllocs gates the extractor's budget: with a warm
// destination, extraction allocates nothing.
func TestExtractIntoAllocs(t *testing.T) {
	vocab := Build(corpus())
	tr := corpus()[0]
	var scratch sparse.Vector
	vocab.ExtractInto(&tr, &scratch)
	if avg := testing.AllocsPerRun(200, func() {
		vocab.ExtractInto(&tr, &scratch)
	}); avg > 0 {
		t.Errorf("warm ExtractInto allocates %.1f times per tx, want 0", avg)
	}
}

// TestStreamerFeedAllocs gates the whole steady-state feed path: parsing a
// log line and feeding it through a long-running streamer — windows
// emitting as they complete — must average at most 2 allocations per
// transaction. The budget covers the collector's per-line string plus the
// slices an emitted Window legitimately carries away; the per-window maps
// and extract vectors the path used to allocate would blow it immediately.
func TestStreamerFeedAllocs(t *testing.T) {
	vocab := Build(corpus())
	s, err := NewStreamer(vocab, WindowConfig{Duration: time.Minute, Shift: 30 * time.Second}, "10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(corpus()))
	for i, tr := range corpus() {
		tr.Timestamp = time.Time{} // timestamp is re-stamped per feed below
		lines[i] = tx(0, tr.UserID, tr.Category, tr.AppType, tr.MediaType, tr.Reputation).MarshalLine()
	}
	var fed int
	const perRun = 120
	feed := func(tb testing.TB) {
		for i := 0; i < perRun; i++ {
			tr, err := weblog.ParseLine(lines[fed%len(lines)])
			if err != nil {
				tb.Fatal(err)
			}
			tr.Timestamp = t0.Add(time.Duration(fed) * time.Second)
			fed++
			if _, err := s.Add(tr); err != nil {
				tb.Fatal(err)
			}
		}
	}
	feed(t) // warm-up: grows the buffer, accumulator scratch and user tally
	avg := testing.AllocsPerRun(20, func() { feed(t) })
	if perTx := avg / perRun; perTx > 2 {
		t.Errorf("feed path allocates %.2f times per tx, want <= 2", perTx)
	}
}

// TestComposeGapAllocs gates Compose's cost model: allocations follow the
// non-empty windows, not the idle time between them. The same trace run
// dense and with a 1-day gap in the middle (2,880 empty windows at D=1m,
// S=30s) must allocate at the same per-window rate; a window-by-window
// walk allocates a user-count map for each empty window as well.
func TestComposeGapAllocs(t *testing.T) {
	cfg := WindowConfig{Duration: time.Minute, Shift: 30 * time.Second}
	const n = 200
	dense := make([]weblog.Transaction, n)
	gapped := make([]weblog.Transaction, n)
	for i := range dense {
		dense[i] = traceTx(t0.Add(time.Duration(i)*7*time.Second), i)
		gapped[i] = dense[i]
		if i >= n/2 {
			gapped[i].Timestamp = gapped[i].Timestamp.Add(24 * time.Hour)
		}
	}
	vocab := Build(dense)
	perWindow := func(txs []weblog.Transaction) float64 {
		ws, err := Compose(vocab, cfg, txs, "x")
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { Compose(vocab, cfg, txs, "x") }) / float64(len(ws))
	}
	want, got := perWindow(dense), perWindow(gapped)
	if got > want*1.1 {
		t.Errorf("Compose allocates %.2f times per window across a 1-day gap, %.2f without it", got, want)
	}
}

// TestRecordSize gates the buffered record's footprint: every live
// device holds a window's worth of records, so a record must stay within
// 56 bytes and hold no pointer (a pointer-free buffer is never scanned by
// the garbage collector, and keeps no ingest memory alive).
func TestRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(Record{}); size > 56 {
		t.Errorf("Record is %d bytes, want <= 56", size)
	}
	var walk func(reflect.Type) bool
	walk = func(typ reflect.Type) bool { // reports whether typ holds a pointer
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if walk(typ.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Array:
			return walk(typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return false
		default:
			return true
		}
	}
	if walk(reflect.TypeOf(Record{})) {
		t.Error("Record holds a pointer")
	}
}
