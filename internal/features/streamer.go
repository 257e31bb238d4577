package features

import (
	"fmt"
	"maps"
	"time"

	"webtxprofile/internal/sparse"
	"webtxprofile/internal/weblog"
)

// Streamer composes windows incrementally from a live transaction feed —
// the online counterpart of Compose used by the continuous-authentication
// pipeline. Transactions must arrive in non-decreasing timestamp order;
// windows are emitted as soon as their interval can no longer receive
// transactions (that is, when a transaction at or past the window end
// arrives, or on Close).
//
// Streamer produces exactly the windows Compose would produce on the full
// transaction sequence; TestStreamerMatchesCompose asserts that
// equivalence.
//
// Cost is O(transactions × D/S), independent of idle time: once its buffer
// drains, the streamer jumps straight to the first window that can hold
// the next arrival (WindowConfig.FirstWindowEndingAfter) instead of
// stepping through the empty windows of a gap. Window positions, Emitted
// and every Snapshot are exactly those of a window-by-window walk.
type Streamer struct {
	vocab  *Vocabulary
	cfg    WindowConfig
	entity string

	buf       []weblog.Transaction // pending transactions, oldest first
	nextIdx   int                  // index k of the next window to emit
	anchored  bool
	anchor    weblog.Transaction // first transaction; defines t0
	lastSeen  weblog.Transaction
	closed    bool
	emitCount int

	// Reusable window-build scratch (lazily created): the accumulator, the
	// per-transaction extract destination and the user tally live across
	// windows so steady-state builds allocate only what each emitted Window
	// carries away. Deliberately absent from StreamerState.
	acc     *sparse.Accumulator
	scratch sparse.Vector
	users   map[string]int
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
	if !s.anchored {
		s.anchored = true
		s.anchor = tx
	} else if tx.Timestamp.Before(s.lastSeen.Timestamp) {
		return nil, fmt.Errorf("features: out-of-order transaction at %v (last %v)",
			tx.Timestamp, s.lastSeen.Timestamp)
	}
	// Every window before target ends at or before the new arrival: no
	// later transaction can fall inside it. (The anchoring transaction
	// itself always indexes, so an error leaves the state untouched.)
	target, err := s.cfg.FirstWindowEndingAfter(s.anchor.Timestamp, tx.Timestamp)
	if err != nil {
		return nil, err
	}
	s.lastSeen = tx
	var out []Window
	for s.nextIdx < target {
		if len(s.buf) == 0 {
			// Everything seen lies before window nextIdx: the rest of
			// the windows ending by the arrival are empty.
			s.nextIdx = target
			break
		}
		start := s.windowStart(s.nextIdx)
		if w, ok := s.build(start, start.Add(s.cfg.Duration)); ok {
			out = append(out, w)
		}
		s.nextIdx++
		s.gc(start.Add(s.cfg.Shift))
	}
	s.buf = append(s.buf, tx)
	return out, nil
}

// Close flushes the windows still covering buffered transactions and marks
// the streamer finished. It mirrors Compose's trailing behaviour: windows
// are generated while their start is not after the last transaction.
func (s *Streamer) Close() []Window {
	if s.closed || !s.anchored {
		s.closed = true
		return nil
	}
	s.closed = true
	last := int(s.lastSeen.Timestamp.Sub(s.anchor.Timestamp) / s.cfg.Shift)
	var out []Window
	for ; s.nextIdx <= last; s.nextIdx++ {
		if len(s.buf) == 0 { // the remaining windows are empty
			s.nextIdx = last + 1
			break
		}
		start := s.windowStart(s.nextIdx)
		if w, ok := s.build(start, start.Add(s.cfg.Duration)); ok {
			out = append(out, w)
		}
		s.gc(start.Add(s.cfg.Shift))
	}
	return out
}

// windowStart returns the start of window k: anchor + k·S.
func (s *Streamer) windowStart(k int) time.Time {
	return s.anchor.Timestamp.Add(time.Duration(k) * s.cfg.Shift)
}

// Emitted returns the number of windows produced so far.
func (s *Streamer) Emitted() int { return s.emitCount }

// StreamerState is a serializable snapshot of a Streamer: the window
// anchor, the transactions still buffered for open windows, and the
// position of the next window to emit. A streamer restored from a snapshot
// produces exactly the window sequence the original would have produced —
// the checkpoint/resume property the durable identifier state in core
// builds on (TestStreamerSnapshotResume proves it against Compose).
//
// The state is plain data with JSON tags; it carries no vocabulary or
// window configuration — RestoreStreamer re-binds it to those, so the
// snapshot stays valid as long as the profile bundle it belongs to does.
type StreamerState struct {
	Entity    string               `json:"entity"`
	Anchored  bool                 `json:"anchored,omitempty"`
	Closed    bool                 `json:"closed,omitempty"`
	NextIdx   int                  `json:"next_idx,omitempty"`
	EmitCount int                  `json:"emit_count,omitempty"`
	Anchor    *weblog.Transaction  `json:"anchor,omitempty"`
	LastSeen  *weblog.Transaction  `json:"last_seen,omitempty"`
	Buffered  []weblog.Transaction `json:"buffered,omitempty"`
}

// Snapshot captures the streamer's full resumable state. The buffered
// transactions are copied, so the snapshot stays valid while the streamer
// keeps running.
func (s *Streamer) Snapshot() StreamerState {
	st := StreamerState{
		Entity:    s.entity,
		Anchored:  s.anchored,
		Closed:    s.closed,
		NextIdx:   s.nextIdx,
		EmitCount: s.emitCount,
	}
	if s.anchored {
		anchor, last := s.anchor, s.lastSeen
		st.Anchor, st.LastSeen = &anchor, &last
		st.Buffered = append([]weblog.Transaction(nil), s.buf...)
	}
	return st
}

// RestoreStreamer rebuilds a streamer from a snapshot taken with Snapshot,
// re-bound to the given vocabulary and window configuration (which must be
// the ones the original streamer ran with — they are not part of the
// state). The restored streamer resumes at the exact window sequence the
// snapshotted one would have emitted next.
func RestoreStreamer(vocab *Vocabulary, cfg WindowConfig, st StreamerState) (*Streamer, error) {
	s, err := NewStreamer(vocab, cfg, st.Entity)
	if err != nil {
		return nil, err
	}
	if st.NextIdx < 0 || st.EmitCount < 0 {
		return nil, fmt.Errorf("features: negative window counters in streamer state for %q", st.Entity)
	}
	if !st.Anchored {
		if st.Anchor != nil || st.LastSeen != nil || len(st.Buffered) > 0 {
			return nil, fmt.Errorf("features: unanchored streamer state for %q carries transactions", st.Entity)
		}
		s.closed = st.Closed
		s.nextIdx = st.NextIdx
		s.emitCount = st.EmitCount
		return s, nil
	}
	if st.Anchor == nil || st.LastSeen == nil {
		return nil, fmt.Errorf("features: anchored streamer state for %q missing anchor or last-seen", st.Entity)
	}
	if st.LastSeen.Timestamp.Before(st.Anchor.Timestamp) {
		return nil, fmt.Errorf("features: streamer state for %q has last-seen before its anchor", st.Entity)
	}
	if _, err := cfg.FirstWindowEndingAfter(st.Anchor.Timestamp, st.LastSeen.Timestamp); err != nil {
		return nil, fmt.Errorf("features: streamer state for %q: %w", st.Entity, err)
	}
	for i := range st.Buffered {
		if i > 0 && st.Buffered[i].Timestamp.Before(st.Buffered[i-1].Timestamp) {
			return nil, fmt.Errorf("features: buffered transactions out of order in streamer state for %q", st.Entity)
		}
	}
	if n := len(st.Buffered); n > 0 && st.LastSeen.Timestamp.Before(st.Buffered[n-1].Timestamp) {
		return nil, fmt.Errorf("features: streamer state for %q has last-seen before buffered tail", st.Entity)
	}
	s.anchored = true
	s.anchor = *st.Anchor
	s.lastSeen = *st.LastSeen
	s.closed = st.Closed
	s.nextIdx = st.NextIdx
	s.emitCount = st.EmitCount
	s.buf = append([]weblog.Transaction(nil), st.Buffered...)
	return s, nil
}

// build aggregates buffered transactions inside [start, end) using the
// streamer's reusable scratch; only an emitted Window materializes fresh
// slices and a fresh user-count map.
func (s *Streamer) build(start, end time.Time) (Window, bool) {
	if s.acc == nil {
		s.acc = sparse.NewAccumulator(s.vocab.NumericCols())
		s.users = make(map[string]int)
	}
	s.acc.Reset()
	clear(s.users)
	for i := range s.buf {
		ts := s.buf[i].Timestamp
		if ts.Before(start) || !ts.Before(end) {
			continue
		}
		s.vocab.ExtractInto(&s.buf[i], &s.scratch)
		s.acc.Add(s.scratch)
		s.users[s.buf[i].UserID]++
	}
	if s.acc.Count() == 0 {
		return Window{}, false
	}
	s.emitCount++
	return Window{
		Start:      start,
		End:        end,
		Vector:     s.acc.Vector(),
		Count:      s.acc.Count(),
		Entity:     s.entity,
		UserCounts: maps.Clone(s.users),
	}, true
}

// gc drops buffered transactions older than the next window's start.
func (s *Streamer) gc(nextStart time.Time) {
	drop := 0
	for drop < len(s.buf) && s.buf[drop].Timestamp.Before(nextStart) {
		drop++
	}
	if drop > 0 {
		s.buf = append(s.buf[:0], s.buf[drop:]...)
	}
}
