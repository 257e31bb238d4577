package features

import (
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"webtxprofile/internal/weblog"
)

// pointsInto returns a predicate reporting whether a string's bytes lie
// inside buf's. The caller keeps buf alive (runtime.KeepAlive) until its
// last check, so no later allocation can reuse the range.
func pointsInto(buf string) func(string) bool {
	lo := uintptr(unsafe.Pointer(unsafe.StringData(buf)))
	hi := lo + uintptr(len(buf))
	return func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return len(s) > 0 && p >= lo && p < hi
	}
}

// parseBatch renders txs as one newline-joined batch of log lines and
// parses each line in place, the way an ingest path does: every string
// of the returned transactions aliases the batch.
func parseBatch(t *testing.T, txs []weblog.Transaction) ([]weblog.Transaction, string) {
	t.Helper()
	lines := make([]string, len(txs))
	for i := range txs {
		lines[i] = txs[i].MarshalLine()
	}
	batch := strings.Join(lines, "\n")
	out := make([]weblog.Transaction, len(lines))
	off := 0
	for i, line := range lines {
		tx, err := weblog.ParseLine(batch[off : off+len(line)])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tx
		off += len(line) + 1
	}
	return out, batch
}

// checkStreamerOwns fails t for every string the streamer keeps (its
// entity and user table) and every string of the windows it emitted that
// points into the batch. Records hold no strings at all
// (TestRecordSize).
func checkStreamerOwns(t *testing.T, stage string, s *Streamer, windows []Window, pinned func(string) bool) {
	t.Helper()
	st := s.Snapshot()
	if !st.Anchored {
		t.Fatalf("%s: streamer not anchored", stage)
	}
	check := func(what string, strs ...string) {
		for _, str := range strs {
			if pinned(str) {
				t.Errorf("%s: %s string %q points into the ingest batch", stage, what, str)
			}
		}
	}
	check("entity", st.Entity)
	check("user table", s.users...)
	for _, w := range windows {
		check("window entity", w.Entity)
		for u := range w.UserCounts {
			check("window user", u)
		}
	}
}

// TestStreamerRetainsNoIngestMemory feeds a streamer transactions whose
// strings alias one ingest batch and checks that nothing the streamer
// keeps — entity, user table, emitted windows — points into it, also
// after a restore from a state whose strings alias the blob it was
// decoded from.
func TestStreamerRetainsNoIngestMemory(t *testing.T) {
	cfg := WindowConfig{Duration: time.Minute, Shift: 30 * time.Second}
	const n = 240
	src := make([]weblog.Transaction, n)
	for i := range src {
		src[i] = traceTx(t0.Add(time.Duration(i)*7*time.Second), i)
	}
	vocab := Build(src)
	txs, batch := parseBatch(t, src)
	pinned := pointsInto(batch)

	s, err := NewStreamer(vocab, cfg, "10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	var windows []Window
	for _, tx := range txs[:n/2] {
		ws, err := s.Add(tx)
		if err != nil {
			t.Fatal(err)
		}
		windows = append(windows, ws...)
	}
	checkStreamerOwns(t, "fed", s, windows, pinned)

	// A decoded state blob: every string of the state aliases the blob.
	st := s.Snapshot()
	blob := strings.Join(append([]string{st.Entity}, st.Users...), "")
	inBlob := pointsInto(blob)
	st.Entity = blob[:len(st.Entity)]
	for i, off := 0, len(st.Entity); i < len(st.Users); i++ {
		st.Users[i] = blob[off : off+len(st.Users[i])]
		off += len(st.Users[i])
	}
	restored, err := RestoreStreamer(vocab, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	checkStreamerOwns(t, "restored", restored, nil, inBlob)

	windows = windows[:0]
	for _, tx := range txs[n/2:] {
		ws, err := restored.Add(tx)
		if err != nil {
			t.Fatal(err)
		}
		windows = append(windows, ws...)
	}
	checkStreamerOwns(t, "fed after restore", restored, windows, func(s string) bool { return pinned(s) || inBlob(s) })
	runtime.KeepAlive(batch)
	runtime.KeepAlive(blob)
}
