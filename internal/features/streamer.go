package features

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"webtxprofile/internal/sparse"
	"webtxprofile/internal/weblog"
)

// Streamer composes windows incrementally from a transaction feed. It is
// the only window composer: the continuous-authentication pipeline feeds
// it live, and Compose — training, grid search, the experiments — runs a
// whole sorted sequence through it. Transactions must arrive in
// non-decreasing timestamp order; windows are emitted as soon as their
// interval can no longer receive transactions (that is, when a
// transaction at or past the window end arrives, or on Close).
// TestWindowingMatchesNaive holds it to a window-by-window walk, and
// TestOfflineIdentificationMatchesLive (internal/experiments) holds the
// offline identification path to the daemon's.
//
// Cost is O(transactions × D/S), independent of idle time: once its buffer
// drains, the streamer jumps straight to the first window that can hold
// the next arrival (WindowConfig.FirstWindowEndingAfter) instead of
// stepping through the empty windows of a gap. Window positions, Emitted
// and every Snapshot are exactly those of a window-by-window walk.
//
// Add extracts each transaction once, into a Record: its columns, its
// offset from the anchor and its index in a small per-streamer user
// table. A window is the records inside it accumulated in buffer order,
// so nothing is extracted again for the other windows covering the
// transaction. Records hold no pointer and keep nothing of the caller's
// memory (a log line, a wire frame, a decoded state blob): the only
// strings a streamer keeps are its entity and the user table, which are
// its own copies. Anchor and last-seen are bare timestamps. The buffer's
// capacity follows the window: above a small floor it shrinks once it
// drains to a quarter of its capacity, so one burst does not fix the
// streamer's footprint for life. Window-build scratch is borrowed per
// window from a pool shared by every streamer on the same vocabulary.
//
// Records carry column ids, so a streamer's state is only valid under the
// vocabulary it was built with (see Vocabulary.Fingerprint).
type Streamer struct {
	vocab  *Vocabulary
	cfg    WindowConfig
	entity string

	buf       []Record // pending transactions, oldest first
	users     []string // the user table buf's records index
	nextIdx   int      // index k of the next window to emit
	anchored  bool
	anchor    time.Time // first transaction's timestamp; defines t0
	lastSeen  time.Time
	closed    bool
	emitCount int
}

// Record is one buffered transaction as window builds need it: the
// per-transaction feature vector of Sect. III-B, which hits at most one
// column per Table I group, plus its timestamp and its user. It holds no
// pointer, so a buffer of records is never scanned by the garbage
// collector.
type Record struct {
	// Offset is the transaction's timestamp minus the streamer's anchor.
	Offset time.Duration
	// Risk is the value of the reputation-risk column; 0 when
	// Cols[GroupReputationRisk] is absent.
	Risk float64
	// Cols holds, in Group order, the column the transaction hit in each
	// Table I group, or -1 for none.
	Cols [numGroups]int32
	// User indexes the user table of the streamer or state holding the
	// record.
	User uint32
}

// noCols is a Record's column set before extraction: no group hit.
var noCols = [numGroups]int32{-1, -1, -1, -1, -1, -1, -1, -1, -1}

// vectorInto writes r's feature vector into dst's backing arrays. Columns
// come out in group order, as a Build vocabulary assigns them, so the
// vector is sorted unless the vocabulary was Extend-ed.
func (r *Record) vectorInto(dst *sparse.Vector) {
	idx, val := dst.Idx[:0], dst.Val[:0]
	for g, c := range r.Cols {
		if c < 0 {
			continue
		}
		v := 1.0
		if g == int(GroupReputationRisk) {
			v = r.Risk
		}
		idx, val = append(idx, c), append(val, v)
	}
	dst.Idx, dst.Val = idx, val
}

// NewStreamer returns a streaming window composer for one entity.
func NewStreamer(vocab *Vocabulary, cfg WindowConfig, entity string) (*Streamer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Streamer{vocab: vocab, cfg: cfg, entity: entity}, nil
}

// Add feeds one transaction and returns any windows completed by its
// arrival (possibly none). A transaction earlier than the last one, or too
// far past the first one to index (an error wrapping ErrWindowRange, from a
// corrupt timestamp centuries ahead), is rejected and leaves the streamer
// unchanged.
func (s *Streamer) Add(tx weblog.Transaction) ([]Window, error) {
	if s.closed {
		return nil, fmt.Errorf("features: Add after Close")
	}
	anchor := tx.Timestamp // the anchoring transaction defines t0
	if s.anchored {
		if tx.Timestamp.Before(s.lastSeen) {
			return nil, fmt.Errorf("features: out-of-order transaction at %v (last %v)",
				tx.Timestamp, s.lastSeen)
		}
		anchor = s.anchor
	}
	// Every window before target ends at or before the new arrival: no
	// later transaction can fall inside it.
	target, err := s.cfg.FirstWindowEndingAfter(anchor, tx.Timestamp)
	if err != nil {
		return nil, err
	}
	s.anchored, s.anchor, s.lastSeen = true, anchor, tx.Timestamp
	var out []Window
	for s.nextIdx < target {
		if len(s.buf) == 0 {
			// Everything seen lies before window nextIdx: the rest of
			// the windows ending by the arrival are empty.
			s.nextIdx = target
			break
		}
		if w, ok := s.build(s.nextIdx); ok {
			out = append(out, w)
		}
		s.nextIdx++
		s.gc(s.nextIdx)
	}
	r := s.vocab.record(&tx)
	r.Offset = tx.Timestamp.Sub(anchor)
	r.User = s.userIndex(tx.UserID)
	s.buf = append(s.buf, r)
	return out, nil
}

// minUserTable is the user-table size below which userIndex never
// compacts: a device shared by a handful of users keeps them all.
const minUserTable = 8

// userIndex returns u's index in the user table, adding a copy of u when
// it is new. A table grown past twice the buffer (plus minUserTable) first
// drops the users no buffered record refers to, so a device seeing a
// stream of distinct users keeps only those of its open windows, at
// amortized O(1) per transaction.
func (s *Streamer) userIndex(u string) uint32 {
	for i := len(s.users) - 1; i >= 0; i-- {
		if s.users[i] == u {
			return uint32(i)
		}
	}
	if len(s.users) >= 2*len(s.buf)+minUserTable {
		s.users = referencedUsers(s.buf, s.users)
	}
	s.users = append(s.users, strings.Clone(u))
	return uint32(len(s.users) - 1)
}

// referencedUsers returns the users recs refer to, in order of first
// reference, in a fresh table, and renumbers recs to index it.
func referencedUsers(recs []Record, users []string) []string {
	remap := make([]uint32, len(users)) // new index + 1; 0 = not yet seen
	var out []string
	for i := range recs {
		u := recs[i].User
		if remap[u] == 0 {
			out = append(out, users[u])
			remap[u] = uint32(len(out))
		}
		recs[i].User = remap[u] - 1
	}
	return out
}

// Close flushes the windows still covering buffered transactions and marks
// the streamer finished: windows are generated while their start is not
// after the last transaction.
func (s *Streamer) Close() []Window {
	if s.closed || !s.anchored {
		s.closed = true
		return nil
	}
	s.closed = true
	last := int(s.lastSeen.Sub(s.anchor) / s.cfg.Shift)
	var out []Window
	for ; s.nextIdx <= last; s.nextIdx++ {
		if len(s.buf) == 0 { // the remaining windows are empty
			s.nextIdx = last + 1
			break
		}
		if w, ok := s.build(s.nextIdx); ok {
			out = append(out, w)
		}
		s.gc(s.nextIdx + 1)
	}
	return out
}

// startOffset returns window k's start offset from the anchor, k·S,
// saturating at the largest Duration, past every record's offset.
func (s *Streamer) startOffset(k int) time.Duration {
	if k > int(math.MaxInt64/s.cfg.Shift) {
		return math.MaxInt64
	}
	return time.Duration(k) * s.cfg.Shift
}

// Emitted returns the number of windows produced so far.
func (s *Streamer) Emitted() int { return s.emitCount }

// StreamerState is a serializable snapshot of a Streamer: the window
// anchor, the records still buffered for open windows with the user table
// they index, and the position of the next window to emit. A streamer
// restored from a snapshot produces exactly the window sequence the
// original would have produced — the checkpoint/resume property the
// durable identifier state in core builds on (TestStreamerSnapshotResume
// proves it against an uninterrupted run).
//
// The state is plain data (core's device-state codec serializes it); it
// carries no vocabulary or window configuration — RestoreStreamer
// re-binds it to those. Its records hold column ids, so it is only valid
// under the vocabulary it was taken with: core's codec stores that
// vocabulary's Fingerprint beside it.
type StreamerState struct {
	Entity    string
	Anchored  bool
	Closed    bool
	NextIdx   int
	EmitCount int
	// Anchor and LastSeen are the timestamps of the first and the latest
	// transaction; zero unless Anchored.
	Anchor, LastSeen time.Time
	// Vocabulary is the fingerprint of the vocabulary whose columns
	// Records hold; zero unless Anchored.
	Vocabulary Fingerprint
	// Users is the user table Records index, in order of first reference.
	Users []string
	// Records are the buffered transactions, oldest first.
	Records []Record
}

// Snapshot captures the streamer's full resumable state. The records are
// copied, so the snapshot stays valid while the streamer keeps running;
// the user table holds only the users they refer to.
func (s *Streamer) Snapshot() StreamerState {
	st := StreamerState{
		Entity:    s.entity,
		Anchored:  s.anchored,
		Closed:    s.closed,
		NextIdx:   s.nextIdx,
		EmitCount: s.emitCount,
		Anchor:    s.anchor,
		LastSeen:  s.lastSeen,
	}
	if s.anchored {
		st.Vocabulary = s.vocab.Fingerprint()
	}
	if len(s.buf) > 0 {
		st.Records = slices.Clone(s.buf)
		st.Users = referencedUsers(st.Records, s.users)
	}
	return st
}

// RestoreStreamer rebuilds a streamer from a snapshot taken with Snapshot,
// re-bound to the given vocabulary and window configuration (which must be
// the ones the original streamer ran with — they are not part of the
// state). The restored streamer resumes at the exact window sequence the
// snapshotted one would have emitted next. It keeps its own copies of the
// state's strings and records.
func RestoreStreamer(vocab *Vocabulary, cfg WindowConfig, st StreamerState) (*Streamer, error) {
	s, err := NewStreamer(vocab, cfg, strings.Clone(st.Entity))
	if err != nil {
		return nil, err
	}
	if st.NextIdx < 0 || st.EmitCount < 0 {
		return nil, fmt.Errorf("features: negative window counters in streamer state for %q", st.Entity)
	}
	if !st.Anchored {
		if !st.Anchor.IsZero() || !st.LastSeen.IsZero() || st.Vocabulary != (Fingerprint{}) || len(st.Records) > 0 || len(st.Users) > 0 {
			return nil, fmt.Errorf("features: unanchored streamer state for %q carries transactions", st.Entity)
		}
		s.closed = st.Closed
		s.nextIdx = st.NextIdx
		s.emitCount = st.EmitCount
		return s, nil
	}
	if st.Anchor.IsZero() || st.LastSeen.IsZero() {
		return nil, fmt.Errorf("features: anchored streamer state for %q missing anchor or last-seen", st.Entity)
	}
	if st.LastSeen.Before(st.Anchor) {
		return nil, fmt.Errorf("features: streamer state for %q has last-seen before its anchor", st.Entity)
	}
	if st.Vocabulary != vocab.Fingerprint() {
		return nil, fmt.Errorf("features: streamer state for %q was taken under another vocabulary (%d columns, hash %#x; want %d, %#x)",
			st.Entity, st.Vocabulary.Size, st.Vocabulary.Hash, vocab.Size(), vocab.Fingerprint().Hash)
	}
	target, err := cfg.FirstWindowEndingAfter(st.Anchor, st.LastSeen)
	if err != nil {
		return nil, fmt.Errorf("features: streamer state for %q: %w", st.Entity, err)
	}
	if !st.Closed && st.NextIdx != target {
		// Add leaves the next window at the first one ending after the
		// last transaction. A state behind it would walk every window in
		// between on the next Add or Close — centuries of them, for a
		// corrupt blob.
		return nil, fmt.Errorf("features: streamer state for %q is at window %d, want %d for its last-seen transaction", st.Entity, st.NextIdx, target)
	}
	if err := checkRecords(vocab, st.Records, len(st.Users), st.LastSeen.Sub(st.Anchor)); err != nil {
		return nil, fmt.Errorf("features: streamer state for %q: %w", st.Entity, err)
	}
	s.anchored = true
	s.closed = st.Closed
	s.nextIdx = st.NextIdx
	s.emitCount = st.EmitCount
	s.anchor, s.lastSeen = st.Anchor, st.LastSeen
	if len(st.Records) > 0 {
		s.buf = slices.Clone(st.Records)
	}
	for _, u := range st.Users {
		s.users = append(s.users, strings.Clone(u))
	}
	return s, nil
}

// checkRecords validates recs against vocab: offsets in order between the
// anchor and last (the last-seen offset), users inside a table of nUsers,
// columns inside the vocabulary, and a risk present exactly with its
// column. A record passing it cannot make a window build misbehave.
func checkRecords(vocab *Vocabulary, recs []Record, nUsers int, last time.Duration) error {
	prev := time.Duration(0)
	for i := range recs {
		r := &recs[i]
		if r.Offset < prev || r.Offset > last {
			return fmt.Errorf("buffered record %d at offset %v out of order (previous %v, last-seen %v)", i, r.Offset, prev, last)
		}
		prev = r.Offset
		if int(r.User) >= nUsers {
			return fmt.Errorf("buffered record %d names user %d of %d", i, r.User, nUsers)
		}
		for g, c := range r.Cols {
			if c < -1 || int(c) >= vocab.Size() {
				return fmt.Errorf("buffered record %d has %s column %d outside the vocabulary", i, Group(g), c)
			}
		}
		if hasRisk := r.Cols[GroupReputationRisk] >= 0; hasRisk != (r.Risk != 0) || math.IsNaN(r.Risk) || math.IsInf(r.Risk, 0) {
			return fmt.Errorf("buffered record %d has risk %v with risk column %d", i, r.Risk, r.Cols[GroupReputationRisk])
		}
	}
	return nil
}

// windowScratch is the window-build scratch a streamer borrows for one
// build: the accumulator, the per-record vector and the user tally
// (counts by user-table index, and the indexes counted). Only an emitted
// Window's own slices and map are allocated per build.
type windowScratch struct {
	acc    *sparse.Accumulator
	vec    sparse.Vector
	counts []int32
	seen   []uint32
}

// scratchPool is the free list of window-build scratch shared by every
// streamer on one vocabulary: a live streamer holds none, and the list
// grows only to the number of builds that ever ran at once. (A sync.Pool
// empties at every collection and, under the race detector, drops puts at
// random; each miss would rebuild the accumulator from scratch.)
type scratchPool struct {
	mu   sync.Mutex
	free []*windowScratch
}

func (p *scratchPool) get(vocab *Vocabulary) *windowScratch {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		ws := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return ws
	}
	p.mu.Unlock()
	return &windowScratch{acc: sparse.NewAccumulator(vocab.NumericCols())}
}

// put returns ws to the list. Its user tally is already zero: build
// clears the counts it raised.
func (p *scratchPool) put(ws *windowScratch) {
	p.mu.Lock()
	p.free = append(p.free, ws)
	p.mu.Unlock()
}

// build aggregates the buffered records inside window k using the
// vocabulary's pooled scratch; only an emitted Window materializes fresh
// slices and a fresh user-count map.
func (s *Streamer) build(k int) (Window, bool) {
	lo := s.startOffset(k)
	hi := lo + min(s.cfg.Duration, math.MaxInt64-lo) // saturating lo + D
	ws := s.vocab.scratch.get(s.vocab)
	defer s.vocab.scratch.put(ws)
	ws.acc.Reset()
	if n := len(s.users); len(ws.counts) < n {
		ws.counts = append(ws.counts, make([]int32, n-len(ws.counts))...)
	}
	for i := range s.buf {
		r := &s.buf[i]
		if r.Offset < lo {
			continue
		}
		if r.Offset >= hi {
			break
		}
		r.vectorInto(&ws.vec)
		ws.acc.Add(ws.vec)
		if ws.counts[r.User] == 0 {
			ws.seen = append(ws.seen, r.User)
		}
		ws.counts[r.User]++
	}
	if ws.acc.Count() == 0 {
		return Window{}, false
	}
	users := make(map[string]int, len(ws.seen))
	for _, u := range ws.seen {
		users[s.users[u]] = int(ws.counts[u])
		ws.counts[u] = 0
	}
	ws.seen = ws.seen[:0]
	s.emitCount++
	start := s.anchor.Add(time.Duration(k) * s.cfg.Shift)
	return Window{
		Start:      start,
		End:        start.Add(s.cfg.Duration),
		Vector:     ws.acc.Vector(),
		Count:      ws.acc.Count(),
		Entity:     s.entity,
		UserCounts: users,
	}, true
}

// minBufCap is the capacity below which gc never shrinks a buffer: small
// buffers swing across a quarter of their capacity every few windows, and
// moving them each time would cost more allocations than the slots save.
const minBufCap = 16

// gc drops buffered records older than window k's start. A buffer drained
// to a quarter of its capacity moves into an array of twice its length
// (at least minBufCap), so capacity follows the window rather than the
// largest burst; otherwise the survivors shift down in place.
func (s *Streamer) gc(k int) {
	from := s.startOffset(k)
	drop := 0
	for drop < len(s.buf) && s.buf[drop].Offset < from {
		drop++
	}
	if drop == 0 {
		return
	}
	rest := s.buf[drop:]
	if len(rest) <= cap(s.buf)/4 && cap(s.buf) > minBufCap {
		s.buf = append(make([]Record, 0, max(2*len(rest), minBufCap)), rest...)
		return
	}
	s.buf = s.buf[:copy(s.buf, rest)]
}
