// Package baseline implements the comparators the paper positions itself
// against (Sect. VI): a coarse IP-flow-record profiler in the spirit of
// Verde et al. [11] (NetFlow features, no service knowledge) and a Markov
// service-transition model. Both plug into the same one-class classifiers
// and windowing as the main pipeline, so ablation benches can show why
// transaction-level features identify users faster than flow-level ones.
package baseline

import (
	"fmt"
	"math"
	"sort"
	"time"

	"webtxprofile/internal/features"
	"webtxprofile/internal/sparse"
	"webtxprofile/internal/weblog"
)

// Flow is a synthesized IP-flow record: the coarse view a NetFlow collector
// would have of the same traffic — endpoints and volumes, but none of the
// proxy's service augmentation.
type Flow struct {
	Start, End time.Time
	UserID     string
	SourceIP   string
	DestHost   string
	Packets    int
	Bytes      int
}

// Duration returns the flow duration.
func (f *Flow) Duration() time.Duration { return f.End.Sub(f.Start) }

// FlowsFromTransactions synthesizes flow records from transaction logs:
// consecutive transactions from one (user, device, destination host)
// within idleGap collapse into one flow. Packet and byte counts derive
// deterministically from the transactions' media types (video and download
// responses are heavy, text light), preserving the relative volume signal
// a NetFlow collector would see. Transactions must be time-sorted.
func FlowsFromTransactions(txs []weblog.Transaction, idleGap time.Duration) ([]Flow, error) {
	if idleGap <= 0 {
		return nil, fmt.Errorf("baseline: idle gap %v must be positive", idleGap)
	}
	type key struct{ user, src, dst string }
	open := make(map[key]*Flow)
	var flows []Flow
	flush := func(k key) {
		if f := open[k]; f != nil {
			flows = append(flows, *f)
			delete(open, k)
		}
	}
	for i := range txs {
		tx := &txs[i]
		if i > 0 && tx.Timestamp.Before(txs[i-1].Timestamp) {
			return nil, fmt.Errorf("baseline: transactions not sorted at index %d", i)
		}
		k := key{tx.UserID, tx.SourceIP, tx.Host}
		f := open[k]
		if f != nil && tx.Timestamp.Sub(f.End) > idleGap {
			flush(k)
			f = nil
		}
		if f == nil {
			open[k] = &Flow{
				Start: tx.Timestamp, End: tx.Timestamp,
				UserID: tx.UserID, SourceIP: tx.SourceIP, DestHost: tx.Host,
			}
			f = open[k]
		}
		f.End = tx.Timestamp
		pkts, bytes := txVolume(tx)
		f.Packets += pkts
		f.Bytes += bytes
	}
	for k := range open {
		flows = append(flows, *open[k])
	}
	sort.Slice(flows, func(i, j int) bool {
		if !flows[i].Start.Equal(flows[j].Start) {
			return flows[i].Start.Before(flows[j].Start)
		}
		return flows[i].DestHost < flows[j].DestHost
	})
	return flows, nil
}

// txVolume derives a deterministic packet/byte volume for one transaction
// from its media type — the part of the flow signal that correlates with
// content kind.
func txVolume(tx *weblog.Transaction) (packets, bytes int) {
	base := 6
	size := 4 << 10
	switch tx.MediaType.Super {
	case "video":
		base, size = 600, 2<<20
	case "audio":
		base, size = 150, 512<<10
	case "image":
		base, size = 30, 64<<10
	case "application":
		base, size = 80, 256<<10
	}
	// Small deterministic jitter from the host name keeps flows from
	// being byte-identical.
	h := 0
	for _, c := range tx.Host {
		h = (h*31 + int(c)) % 97
	}
	return base + h%7, size + h*137
}

// Flow feature columns (all numeric; aggregated by mean via the window
// accumulator's numeric path).
const (
	colFlowCount = iota
	colMeanDurationS
	colMeanLogBytes
	colMeanLogPackets
	colMeanGapS
	colDistinctHosts
	numFlowCols
)

// FlowVocabSize is the dimensionality of flow feature vectors.
const FlowVocabSize = numFlowCols

// FlowWindows aggregates one entity's flows into sliding windows of coarse
// numeric features: flow count, mean duration, mean log-volume, mean
// inter-flow gap and distinct destination count — the feature family of
// flow-based profiling [3], [11]. A flow belongs to every window its start
// falls into. The flows must be sorted by start.
//
// Like features.Compose, it costs O(flows × D/S) independent of idle time
// (it jumps across gaps with WindowConfig.FirstWindowEndingAfter), and a
// flow starting too far past the first one to index fails the call with an
// error wrapping features.ErrWindowRange.
func FlowWindows(flows []Flow, cfg features.WindowConfig, entity string) ([]features.Window, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(flows) == 0 {
		return nil, nil
	}
	for i := 1; i < len(flows); i++ {
		if flows[i].Start.Before(flows[i-1].Start) {
			return nil, fmt.Errorf("baseline: flows not sorted at index %d", i)
		}
	}
	t0 := flows[0].Start
	last := flows[len(flows)-1].Start
	if _, err := cfg.FirstWindowEndingAfter(t0, last); err != nil {
		return nil, err
	}
	lastK := int(last.Sub(t0) / cfg.Shift)
	var windows []features.Window
	lo := 0
	for k := 0; k <= lastK; k++ {
		start := t0.Add(time.Duration(k) * cfg.Shift)
		for flows[lo].Start.Before(start) { // start <= last bounds lo
			lo++
		}
		end := start.Add(cfg.Duration)
		if !flows[lo].Start.Before(end) {
			// Jump over the empty windows to the first one still open
			// at flows[lo].
			var err error
			if k, err = cfg.FirstWindowEndingAfter(t0, flows[lo].Start); err != nil {
				return nil, err
			}
			start = t0.Add(time.Duration(k) * cfg.Shift)
			end = start.Add(cfg.Duration)
		}
		var inWin []Flow
		users := make(map[string]int)
		for i := lo; i < len(flows) && flows[i].Start.Before(end); i++ {
			inWin = append(inWin, flows[i])
			users[flows[i].UserID]++
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
	return windows, nil
}

// flowVector summarizes the flows of one window.
func flowVector(flows []Flow) sparse.Vector {
	var durSum, logBytes, logPkts, gapSum float64
	hosts := make(map[string]bool, len(flows))
	for i := range flows {
		f := &flows[i]
		durSum += f.Duration().Seconds()
		logBytes += math.Log1p(float64(f.Bytes))
		logPkts += math.Log1p(float64(f.Packets))
		hosts[f.DestHost] = true
		if i > 0 {
			gapSum += f.Start.Sub(flows[i-1].Start).Seconds()
		}
	}
	n := float64(len(flows))
	dense := map[int]float64{
		colFlowCount:      n,
		colMeanDurationS:  durSum / n,
		colMeanLogBytes:   logBytes / n,
		colMeanLogPackets: logPkts / n,
		colDistinctHosts:  float64(len(hosts)),
	}
	if len(flows) > 1 {
		dense[colMeanGapS] = gapSum / (n - 1)
	}
	return sparse.New(dense)
}

// UserFlowWindows builds per-user flow windows for a whole dataset, the
// flow-based counterpart of features.ComposeUsers.
func UserFlowWindows(ds *weblog.Dataset, idleGap time.Duration, cfg features.WindowConfig) (map[string][]features.Window, error) {
	out := make(map[string][]features.Window)
	for _, u := range ds.Users() {
		flows, err := FlowsFromTransactions(ds.UserTransactions(u), idleGap)
		if err != nil {
			return nil, fmt.Errorf("baseline: flows for %s: %w", u, err)
		}
		ws, err := FlowWindows(flows, cfg, u)
		if err != nil {
			return nil, err
		}
		out[u] = ws
	}
	return out, nil
}
