package features

import (
	"fmt"
	"maps"
	"strings"
	"sync"
	"time"
	"unsafe"

	"webtxprofile/internal/sparse"
	"webtxprofile/internal/taxonomy"
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
//
// A streamer owns the memory its open windows need and nothing else. The
// transactions it keeps (anchor, last-seen, buffer) own their strings:
// Add and RestoreStreamer copy them out of the caller's memory (a log
// line, a wire frame, a decoded state blob), so a long-lived streamer
// never pins an ingest buffer. The buffer's capacity follows the window:
// above a small floor it shrinks once it drains to a quarter of its
// capacity, so one burst does not fix the streamer's footprint for life.
// Window-build scratch is borrowed per window from a pool shared by every
// streamer on the same vocabulary.
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

	// strs holds the strings of the buffered and last-seen transactions.
	// Deliberately absent from StreamerState.
	strs stringArena
}

// arenaBlock is the size of a stringArena block: room for the strings of
// a dozen or so typical transactions.
const arenaBlock = 1 << 10

// stringArena copies strings into shared byte blocks, so keeping a
// transaction costs no allocation of its own. A block stays alive while
// any string in it does; as a streamer's buffer drains, the blocks its
// old transactions filled become garbage.
type stringArena struct {
	block []byte // the block being filled; bytes below len are handed out
}

// reserve makes room for n more bytes, starting a fresh block when the
// current one cannot hold them.
func (a *stringArena) reserve(n int) {
	if n > cap(a.block)-len(a.block) {
		a.block = make([]byte, 0, max(arenaBlock, n))
	}
}

// str returns a copy of s in the room reserve made. Bytes handed out are
// never written again: later strings are appended past them, or into a
// fresh block.
func (a *stringArena) str(s string) string {
	if len(s) == 0 {
		return ""
	}
	n := len(a.block)
	a.block = append(a.block, s...)
	return unsafe.String(&a.block[n], len(s))
}

// stringBytes is the total length of tx's strings.
func stringBytes(tx *weblog.Transaction) int {
	return len(tx.Host) + len(tx.Scheme) + len(tx.Action) + len(tx.UserID) + len(tx.SourceIP) +
		len(tx.Category) + len(tx.MediaType.Super) + len(tx.MediaType.Sub) + len(tx.AppType)
}

// own copies tx's strings into a, in place, except those it can share
// with memory the streamer already owns: SourceIP equal to the entity,
// and the taxonomy's scheme and action constants.
func (s *Streamer) own(a *stringArena, tx *weblog.Transaction) {
	a.reserve(stringBytes(tx))
	tx.Host = a.str(tx.Host)
	switch tx.Scheme {
	case taxonomy.SchemeHTTP:
		tx.Scheme = taxonomy.SchemeHTTP
	case taxonomy.SchemeHTTPS:
		tx.Scheme = taxonomy.SchemeHTTPS
	default:
		tx.Scheme = a.str(tx.Scheme)
	}
	switch tx.Action {
	case taxonomy.ActionGet:
		tx.Action = taxonomy.ActionGet
	case taxonomy.ActionPost:
		tx.Action = taxonomy.ActionPost
	case taxonomy.ActionConnect:
		tx.Action = taxonomy.ActionConnect
	case taxonomy.ActionHead:
		tx.Action = taxonomy.ActionHead
	default:
		tx.Action = a.str(tx.Action)
	}
	tx.UserID = a.str(tx.UserID)
	if tx.SourceIP == s.entity {
		tx.SourceIP = s.entity
	} else {
		tx.SourceIP = a.str(tx.SourceIP)
	}
	tx.Category = a.str(tx.Category)
	tx.MediaType.Super = a.str(tx.MediaType.Super)
	tx.MediaType.Sub = a.str(tx.MediaType.Sub)
	tx.AppType = a.str(tx.AppType)
}

// ownAnchor copies the anchor's strings into one block of their exact
// size: the anchor lives as long as the streamer, and must not keep a
// whole arena block of long-gone transactions alive with it.
func (s *Streamer) ownAnchor(tx weblog.Transaction) weblog.Transaction {
	a := stringArena{block: make([]byte, 0, stringBytes(&tx))}
	s.own(&a, &tx)
	return tx
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
	t0 := tx.Timestamp // the anchoring transaction defines t0
	if s.anchored {
		if tx.Timestamp.Before(s.lastSeen.Timestamp) {
			return nil, fmt.Errorf("features: out-of-order transaction at %v (last %v)",
				tx.Timestamp, s.lastSeen.Timestamp)
		}
		t0 = s.anchor.Timestamp
	}
	// Every window before target ends at or before the new arrival: no
	// later transaction can fall inside it.
	target, err := s.cfg.FirstWindowEndingAfter(t0, tx.Timestamp)
	if err != nil {
		return nil, err
	}
	if s.anchored {
		s.own(&s.strs, &tx)
	} else {
		// The anchor's copy doubles as the buffered and last-seen one.
		s.anchored = true
		s.anchor = s.ownAnchor(tx)
		tx = s.anchor
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
// The state is plain data (core's device-state codec serializes it; the
// JSON tags serve its legacy reader); it carries no vocabulary or
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
	s, err := NewStreamer(vocab, cfg, strings.Clone(st.Entity))
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
	target, err := cfg.FirstWindowEndingAfter(st.Anchor.Timestamp, st.LastSeen.Timestamp)
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
	for i := range st.Buffered {
		if i > 0 && st.Buffered[i].Timestamp.Before(st.Buffered[i-1].Timestamp) {
			return nil, fmt.Errorf("features: buffered transactions out of order in streamer state for %q", st.Entity)
		}
	}
	if n := len(st.Buffered); n > 0 && st.LastSeen.Timestamp.Before(st.Buffered[n-1].Timestamp) {
		return nil, fmt.Errorf("features: streamer state for %q has last-seen before buffered tail", st.Entity)
	}
	s.anchored = true
	s.closed = st.Closed
	s.nextIdx = st.NextIdx
	s.emitCount = st.EmitCount
	// The state's strings alias whatever it was decoded from; the restored
	// streamer keeps its own copies, sharing one wherever Add would have.
	s.anchor = s.ownAnchor(*st.Anchor)
	if len(st.Buffered) > 0 {
		s.buf = make([]weblog.Transaction, len(st.Buffered))
		for i, tx := range st.Buffered {
			if tx == s.anchor {
				s.buf[i] = s.anchor
			} else {
				s.buf[i] = tx
				s.own(&s.strs, &s.buf[i])
			}
		}
	}
	switch n := len(s.buf); {
	case *st.LastSeen == s.anchor:
		s.lastSeen = s.anchor
	case n > 0 && *st.LastSeen == s.buf[n-1]:
		s.lastSeen = s.buf[n-1]
	default:
		s.lastSeen = *st.LastSeen
		s.own(&s.strs, &s.lastSeen)
	}
	return s, nil
}

// windowScratch is the window-build scratch a streamer borrows for one
// build: the accumulator, the per-transaction extract destination and the
// user tally. Only an emitted Window's own slices and map are allocated
// per build.
type windowScratch struct {
	acc   *sparse.Accumulator
	vec   sparse.Vector
	users map[string]int
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
	return &windowScratch{acc: sparse.NewAccumulator(vocab.NumericCols()), users: make(map[string]int)}
}

// put returns ws to the list, its user tally cleared so the list keeps no
// streamer's strings alive.
func (p *scratchPool) put(ws *windowScratch) {
	clear(ws.users)
	p.mu.Lock()
	p.free = append(p.free, ws)
	p.mu.Unlock()
}

// build aggregates buffered transactions inside [start, end) using the
// vocabulary's pooled scratch; only an emitted Window materializes fresh
// slices and a fresh user-count map.
func (s *Streamer) build(start, end time.Time) (Window, bool) {
	ws := s.vocab.scratch.get(s.vocab)
	defer s.vocab.scratch.put(ws)
	ws.acc.Reset()
	for i := range s.buf {
		ts := s.buf[i].Timestamp
		if ts.Before(start) || !ts.Before(end) {
			continue
		}
		s.vocab.ExtractInto(&s.buf[i], &ws.vec)
		ws.acc.Add(ws.vec)
		ws.users[s.buf[i].UserID]++
	}
	if ws.acc.Count() == 0 {
		return Window{}, false
	}
	s.emitCount++
	return Window{
		Start:      start,
		End:        end,
		Vector:     ws.acc.Vector(),
		Count:      ws.acc.Count(),
		Entity:     s.entity,
		UserCounts: maps.Clone(ws.users),
	}, true
}

// minBufCap is the capacity below which gc never shrinks a buffer: small
// buffers swing across a quarter of their capacity every few windows, and
// moving them each time would cost more allocations than the slots save.
const minBufCap = 16

// gc drops buffered transactions older than the next window's start. A
// buffer drained to a quarter of its capacity moves into an array of twice
// its length (at least minBufCap), so capacity follows the window rather
// than the largest burst; otherwise the survivors shift down in place and
// the vacated tail is cleared, so no dropped transaction keeps its strings
// alive.
func (s *Streamer) gc(nextStart time.Time) {
	drop := 0
	for drop < len(s.buf) && s.buf[drop].Timestamp.Before(nextStart) {
		drop++
	}
	if drop == 0 {
		return
	}
	rest := s.buf[drop:]
	if len(rest) <= cap(s.buf)/4 && cap(s.buf) > minBufCap {
		s.buf = append(make([]weblog.Transaction, 0, max(2*len(rest), minBufCap)), rest...)
		return
	}
	n := copy(s.buf, rest)
	clear(s.buf[n:])
	s.buf = s.buf[:n]
}
