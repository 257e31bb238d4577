package eval

import (
	"slices"
	"time"

	"webtxprofile/internal/features"
	"webtxprofile/internal/svm"
)

// TimelinePoint is one host window of the Fig. 3 identification timeline:
// which user actually generated the window and which user models accepted
// it.
type TimelinePoint struct {
	Start      time.Time
	ActualUser string
	Accepted   []string // sorted model (user) ids that accepted the window
}

// Timeline classifies every host window against every model — the Fig. 3
// experiment — scoring each window against all models in one batch-scorer
// pass. Windows must come from host-specific windowing so that UserCounts
// carries the ground truth.
func Timeline(models map[string]*svm.Model, hostWindows []features.Window) []TimelinePoint {
	users, sc := sortedScorer(models)
	out := make([]TimelinePoint, 0, len(hostWindows))
	for i := range hostWindows {
		w := &hostWindows[i]
		pt := TimelinePoint{Start: w.Start, ActualUser: w.DominantUser()}
		for j, accepted := range sc.AcceptMask(w.Vector) {
			if accepted {
				pt.Accepted = append(pt.Accepted, users[j])
			}
		}
		out = append(out, pt)
	}
	return out
}

// TimelineStats summarizes a timeline the way Sect. V-B discusses Fig. 3.
type TimelineStats struct {
	Windows int
	// ActualAccepted counts windows whose true user's own model accepted.
	ActualAccepted int
	// ExclusiveCorrect counts windows accepted by the true user's model
	// and nobody else's.
	ExclusiveCorrect int
	// MeanAccepting is the mean number of models accepting a window.
	MeanAccepting float64
}

// Summarize computes timeline statistics.
func Summarize(tl []TimelinePoint) TimelineStats {
	st := TimelineStats{Windows: len(tl)}
	var totalAccepting int
	for _, pt := range tl {
		totalAccepting += len(pt.Accepted)
		if slices.Contains(pt.Accepted, pt.ActualUser) {
			st.ActualAccepted++
			if len(pt.Accepted) == 1 {
				st.ExclusiveCorrect++
			}
		}
	}
	if len(tl) > 0 {
		st.MeanAccepting = float64(totalAccepting) / float64(len(tl))
	}
	return st
}

// Streak is one user's current run of consecutive accepted windows. User
// indexes the caller's user list, which is sorted by user id.
type Streak struct {
	User int
	Run  int
}

// AdvanceStreaks applies one window to the Sect. V-B identification rule,
// for IdentifyConsecutive and the daemon's core.Identifier alike: a user
// is identified once their model accepts k consecutive windows. prev holds
// the non-zero streaks before the window, ascending by User; accepted is
// the window's accept mask over the sorted users. The streaks after the
// window — one per accepting user — are appended to next, ascending, and
// returned with the identified user: the longest run of at least k, ties
// going to the smaller index (user id), or -1. A k below 1 acts as 1.
// next must not share prev's backing array.
func AdvanceStreaks(next, prev []Streak, accepted []bool, k int) ([]Streak, int) {
	who, best := -1, 0
	for j, ok := range accepted {
		if !ok {
			continue
		}
		for len(prev) > 0 && prev[0].User < j {
			prev = prev[1:]
		}
		run := 1
		if len(prev) > 0 && prev[0].User == j {
			run += prev[0].Run
		}
		next = append(next, Streak{User: j, Run: run})
		if run >= k && run > best {
			who, best = j, run
		}
	}
	return next, who
}

// IdentifyConsecutive runs the timeline through AdvanceStreaks, indexing
// the accepting users in sorted order as core.Identifier indexes its
// profiles. It returns the user identified at the first window where a run
// reaches k and that window's index (ok=false when no user qualifies).
func IdentifyConsecutive(tl []TimelinePoint, k int) (user string, windowIdx int, ok bool) {
	var users []string
	for _, pt := range tl {
		users = append(users, pt.Accepted...)
	}
	slices.Sort(users)
	users = slices.Compact(users)
	accepted := make([]bool, len(users))
	var prev, next []Streak
	for i, pt := range tl {
		clear(accepted)
		for _, u := range pt.Accepted {
			j, _ := slices.BinarySearch(users, u)
			accepted[j] = true
		}
		var who int
		next, who = AdvanceStreaks(next[:0], prev, accepted, k)
		if who >= 0 {
			return users[who], i, true
		}
		prev, next = next, prev
	}
	return "", 0, false
}
