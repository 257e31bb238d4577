package features

import (
	"errors"
	"fmt"
	"math"
	"time"

	"webtxprofile/internal/sparse"
	"webtxprofile/internal/weblog"
)

// WindowConfig holds the sliding-window parameters of Sect. III-C: windows
// of duration D moving by a shifting factor S with S <= D.
type WindowConfig struct {
	Duration time.Duration // D
	Shift    time.Duration // S
}

// Validate enforces 0 < S <= D.
func (c WindowConfig) Validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("features: window duration %v must be positive", c.Duration)
	}
	if c.Shift <= 0 {
		return fmt.Errorf("features: window shift %v must be positive", c.Shift)
	}
	if c.Shift > c.Duration {
		return fmt.Errorf("features: shift %v exceeds duration %v", c.Shift, c.Duration)
	}
	return nil
}

// ErrWindowRange reports a transaction too far past its window anchor to
// index: window k starts at anchor + k·S, and that offset must fit in a
// time.Duration (about 292 years). Only a corrupt timestamp gets there.
var ErrWindowRange = errors.New("features: transaction too far past its window anchor to index")

// FirstWindowEndingAfter returns the smallest window index k with
// anchor + k·S + D > t: the first window of the sequence anchored at
// anchor that can still receive a transaction at t. Every window before k
// ends at or before t. Window composers jump straight to k across idle
// time instead of stepping through the empty windows in between, so their
// cost follows traffic rather than the length of the gaps.
//
// It returns an error wrapping ErrWindowRange when t lies so far past
// anchor that the offset t − anchor does not fit in a time.Duration; every
// window index up to the result is then representable, and so is the
// start of every window that can hold a transaction at or before t.
func (c WindowConfig) FirstWindowEndingAfter(anchor, t time.Time) (int, error) {
	d := t.Sub(anchor) // saturates at math.MaxInt64 on overflow
	if d == math.MaxInt64 {
		return 0, fmt.Errorf("%w: %v is more than %v past %v", ErrWindowRange,
			t.Format(time.RFC3339), time.Duration(math.MaxInt64), anchor.Format(time.RFC3339))
	}
	if d < c.Duration {
		return 0, nil
	}
	return int((d-c.Duration)/c.Shift) + 1, nil
}

// String renders the config as "D=60s S=30s".
func (c WindowConfig) String() string {
	return fmt.Sprintf("D=%s S=%s", c.Duration, c.Shift)
}

// Window is one aggregated transaction window: the feature vector plus the
// ground truth needed for evaluation.
type Window struct {
	// Start and End delimit the half-open interval [Start, End).
	Start, End time.Time
	// Vector is the aggregated feature vector (OR for binary columns,
	// mean for numeric columns).
	Vector sparse.Vector
	// Count is the number of transactions aggregated.
	Count int
	// Entity identifies the windowing subject: a user id under
	// user-specific windowing, a source address under host-specific.
	Entity string
	// UserCounts records, per user id, how many of the window's
	// transactions that user performed — the ground truth for
	// identification experiments.
	UserCounts map[string]int
}

// DominantUser returns the user contributing the most transactions to the
// window (ties broken lexicographically for determinism).
func (w *Window) DominantUser() string {
	best, bestN := "", -1
	for u, n := range w.UserCounts {
		if n > bestN || (n == bestN && u < best) {
			best, bestN = u, n
		}
	}
	return best
}

// Compose aggregates the chronologically sorted transactions of one entity
// into sliding windows: it feeds them, in order, through a Streamer and
// closes it, so offline windows are the daemon's windows. Windows are
// anchored at the first transaction's timestamp; a window materializes only
// if at least one transaction falls inside it (empty windows carry no
// information and are skipped, see DESIGN.md). An out-of-order transaction,
// or one too far past the first to index (an error wrapping
// ErrWindowRange), fails the call with its index. Cost is the Streamer's:
// O(transactions × D/S), independent of idle time.
func Compose(vocab *Vocabulary, cfg WindowConfig, txs []weblog.Transaction, entity string) ([]Window, error) {
	s, err := NewStreamer(vocab, cfg, entity)
	if err != nil {
		return nil, err
	}
	var windows []Window
	for i := range txs {
		ws, err := s.Add(txs[i])
		if err != nil {
			return nil, fmt.Errorf("features: transaction %d: %w", i, err)
		}
		windows = append(windows, ws...)
	}
	return append(windows, s.Close()...), nil
}

// ComposeUsers builds user-specific windows (Sect. III-C) for every user in
// ds, returning them keyed by user id.
func ComposeUsers(vocab *Vocabulary, cfg WindowConfig, ds *weblog.Dataset) (map[string][]Window, error) {
	out := make(map[string][]Window)
	for _, u := range ds.Users() {
		ws, err := Compose(vocab, cfg, ds.UserTransactions(u), u)
		if err != nil {
			return nil, fmt.Errorf("features: windowing user %s: %w", u, err)
		}
		out[u] = ws
	}
	return out, nil
}

// Vectors projects windows onto their feature vectors.
func Vectors(ws []Window) []sparse.Vector {
	out := make([]sparse.Vector, len(ws))
	for i := range ws {
		out[i] = ws[i].Vector
	}
	return out
}
