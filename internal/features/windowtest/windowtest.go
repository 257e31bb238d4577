// Package windowtest holds what the window composers' differential tests
// share: a replayable trace seed and the transaction gaps a jump over
// empty windows has to get right. The tests in features and baseline
// compare each composer with a step-by-step walk over every window on
// traces built from these gaps.
package windowtest

import (
	"os"
	"strconv"
	"testing"
	"time"
)

// Seed returns this run's trace seed: WTP_WINDOW_SEED when set, otherwise
// derived from the clock. The seed is always logged, so a failing run
// replays exactly by exporting it.
func Seed(tb testing.TB) int64 {
	tb.Helper()
	seed := time.Now().UnixNano()
	if s := os.Getenv("WTP_WINDOW_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			tb.Fatalf("WTP_WINDOW_SEED=%q: %v", s, err)
		}
		seed = v
	}
	tb.Logf("window seed: %d (replay with WTP_WINDOW_SEED=%d)", seed, seed)
	return seed
}

// GapClasses is the number of gap shapes NextTimestamp draws from.
const GapClasses = 9

// NextTimestamp returns the timestamp following prev in a trace whose
// windows (duration d, shift s) are anchored at anchor, for one gap class
// in [0, GapClasses) and a magnitude byte. The classes are: no gap, a gap
// inside one shift, exactly d, a short exact multiple of s, landing exactly
// on (or 1ns before) a later window start, the same for a window end,
// unaligned minutes, hours that are an exact multiple of s, and unaligned
// days.
func NextTimestamp(d, s time.Duration, anchor, prev time.Time, class int, mag byte) time.Time {
	m := time.Duration(mag)
	k := prev.Sub(anchor) / s // window k starts at or before prev and ends after it
	switch class {
	case 0:
		return prev
	case 1:
		return prev.Add(s * m / 256)
	case 2:
		return prev.Add(d)
	case 3:
		return prev.Add((1 + m%8) * s)
	case 4:
		return anchor.Add((k+1+m%3)*s - m/128)
	case 5:
		return anchor.Add((k+m%3)*s + d - m/128)
	case 6:
		return prev.Add((1+m)*time.Minute + m*time.Millisecond)
	case 7:
		return prev.Add((1 + m) * (15 * time.Minute / s) * s)
	default:
		return prev.Add((1+m%3)*24*time.Hour + m*7*time.Second)
	}
}
