package baseline

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"webtxprofile/internal/features"
	"webtxprofile/internal/features/windowtest"
)

// naiveFlowWindows is FlowWindows with the step-by-step walk over every
// window, empty or not — the reference the window jump must match.
func naiveFlowWindows(flows []Flow, cfg features.WindowConfig, entity string) []features.Window {
	if len(flows) == 0 {
		return nil
	}
	var windows []features.Window
	t0 := flows[0].Start
	last := flows[len(flows)-1].Start
	lo := 0
	for k := 0; ; k++ {
		start := t0.Add(time.Duration(k) * cfg.Shift)
		if start.After(last) {
			break
		}
		end := start.Add(cfg.Duration)
		for lo < len(flows) && flows[lo].Start.Before(start) {
			lo++
		}
		if lo >= len(flows) {
			break
		}
		var inWin []Flow
		users := make(map[string]int)
		for i := lo; i < len(flows) && flows[i].Start.Before(end); i++ {
			inWin = append(inWin, flows[i])
			users[flows[i].UserID]++
		}
		if len(inWin) == 0 {
			continue
		}
		windows = append(windows, features.Window{
			Start:      start,
			End:        end,
			Vector:     flowVector(inWin),
			Count:      len(inWin),
			Entity:     entity,
			UserCounts: users,
		})
	}
	return windows
}

// gapFlows draws n start-sorted flows with every gap shape of
// windowtest.NextTimestamp.
func gapFlows(rng *rand.Rand, cfg features.WindowConfig, n int) []Flow {
	t0 := time.Date(2015, 5, 29, 5, 0, 0, 0, time.UTC)
	flows := make([]Flow, n)
	at := t0
	for i := range flows {
		if i > 0 {
			at = windowtest.NextTimestamp(cfg.Duration, cfg.Shift, t0, at, rng.Intn(windowtest.GapClasses), byte(rng.Intn(256)))
		}
		flows[i] = Flow{
			Start:    at,
			End:      at.Add(time.Duration(rng.Intn(5000)) * time.Millisecond),
			UserID:   fmt.Sprintf("user_%d", i%3),
			SourceIP: "10.0.0.1",
			DestHost: fmt.Sprintf("h%d.example.com", rng.Intn(4)),
			Packets:  1 + rng.Intn(50),
			Bytes:    100 + rng.Intn(1<<16),
		}
	}
	return flows
}

// TestFlowWindowsMatchesNaive is the differential property test for
// FlowWindows' window jump: on seeded flow traces with every gap shape
// and under S dividing D, S = D and S not dividing D, the windows match
// the step-by-step walk exactly. Replay a failure with the logged
// WTP_WINDOW_SEED.
func TestFlowWindowsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(windowtest.Seed(t)))
	for _, cfg := range []features.WindowConfig{
		{Duration: time.Minute, Shift: 30 * time.Second},
		{Duration: time.Minute, Shift: time.Minute},
		{Duration: 90 * time.Second, Shift: 20 * time.Second},
		{Duration: 10 * time.Second, Shift: 4 * time.Second},
	} {
		for trial := 0; trial < 12; trial++ {
			flows := gapFlows(rng, cfg, 1+rng.Intn(60))
			got, err := FlowWindows(flows, cfg, "u")
			if err != nil {
				t.Fatalf("%v: %v", cfg, err)
			}
			if want := naiveFlowWindows(flows, cfg, "u"); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v trial %d: FlowWindows gave %d windows, naive walk %d (or contents differ)",
					cfg, trial, len(got), len(want))
			}
		}
	}
}

// TestFlowWindowsFarFuture checks that a flow more than time.Duration's
// ~292 years past the first fails with ErrWindowRange instead of looping,
// and that unsorted flows are refused.
func TestFlowWindowsFarFuture(t *testing.T) {
	cfg := features.WindowConfig{Duration: time.Minute, Shift: 30 * time.Second}
	t0 := time.Date(2015, 5, 29, 5, 0, 0, 0, time.UTC)
	flows := []Flow{{Start: t0, End: t0}, {Start: time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)}}
	if _, err := FlowWindows(flows, cfg, "u"); !errors.Is(err, features.ErrWindowRange) {
		t.Errorf("year-9999 flow: %v, want ErrWindowRange", err)
	}
	flows[0], flows[1] = flows[1], flows[0]
	if _, err := FlowWindows(flows, cfg, "u"); err == nil {
		t.Error("unsorted flows accepted")
	}
}
