package main

import (
	"runtime"
	"sort"
	"time"

	"webtxprofile"
	"webtxprofile/internal/features"
	"webtxprofile/internal/sparse"
	"webtxprofile/internal/svm"
	"webtxprofile/internal/weblog"
)

// isolateReps is how many times the stage-isolation pass times each
// stage. The stages take turns, each turn starting after a collection, and
// a stage's cost is the median of its turns: run once each after the run,
// on a heap still holding the system, a stage that happened to meet a
// collection read up to twice its cost, and the stage costs no longer
// added up to the whole-path cost.
const isolateReps = 5

// stage is one timed step of the isolation pass; run returns how long
// the timed part took.
type stage struct {
	name string
	run  func() (time.Duration, error)
}

// isolate is the traced run's stage-isolation pass: single-threaded, over
// the first IsolateTx transactions of the run's own stream, it times each
// layer's public function on its own, so the per-stage costs can be set
// against the whole-path cost of a single-threaded FeedBatch.
func isolate(h *harness, m metrics) error {
	set := h.sys.profiles()
	n := min(h.p.IsolateTx, h.total)
	txs := make([]weblog.Transaction, n)
	lines := make([]string, n)
	for k := range txs {
		txs[k] = h.in.tx(k)
		lines[k] = txs[k].MarshalLine()
	}

	// Scoring runs on the monitor's own engine configuration (the zero
	// FusedConfig: float64, auto-resolved kernels), over the windows the
	// composition stage produces (at most maxWindows of them).
	const maxWindows = 4096
	users := set.Users()
	models := make([]*svm.Model, len(users))
	for i, u := range users {
		models[i] = set.Profiles[u].Model
	}
	start := time.Now()
	ix := svm.NewFusedIndex(models, svm.FusedConfig{})
	m.set("svm.index_build_ms", float64(time.Since(start))/1e6, "ms")
	m.set("svm.index_mb", float64(h.sys.footprint().IndexBytes)/(1<<20), "MB")
	sc := ix.NewScorer()
	var vecs []sparse.Vector
	windows := 0
	var kernel svm.KernelStats

	stages := []stage{
		{"parse", func() (time.Duration, error) {
			start := time.Now()
			for _, l := range lines {
				if _, err := weblog.ParseLine(l); err != nil {
					return 0, err
				}
			}
			return time.Since(start), nil
		}},
		{"extract", func() (time.Duration, error) {
			start := time.Now()
			for i := range txs {
				set.Vocabulary.Extract(&txs[i])
			}
			return time.Since(start), nil
		}},
		// Composition keeps one Streamer per device, as the monitor does.
		{"compose", func() (time.Duration, error) {
			streamers := make(map[string]*features.Streamer)
			collect := vecs == nil
			windows = 0
			start := time.Now()
			for i := range txs {
				st := streamers[txs[i].SourceIP]
				if st == nil {
					var err error
					if st, err = features.NewStreamer(set.Vocabulary, set.Window, txs[i].SourceIP); err != nil {
						return 0, err
					}
					streamers[txs[i].SourceIP] = st
				}
				ws, err := st.Add(txs[i])
				if err != nil {
					return 0, err
				}
				windows += len(ws)
				for _, w := range ws {
					if collect && len(vecs) < maxWindows {
						vecs = append(vecs, w.Vector)
					}
				}
			}
			return time.Since(start), nil
		}},
		{"score", func() (time.Duration, error) {
			before := svm.ReadKernelStats()
			start := time.Now()
			for _, v := range vecs {
				sc.AcceptMask(v)
			}
			d := time.Since(start)
			kernel = svm.ReadKernelStats().Sub(before)
			return d, nil
		}},
		{"single_thread", func() (time.Duration, error) {
			mon, err := webtxprofile.NewMonitorWithConfig(set, h.p.K, func(webtxprofile.Alert) {},
				webtxprofile.MonitorConfig{BatchWorkers: 1})
			if err != nil {
				return 0, err
			}
			defer mon.Close()
			start := time.Now()
			for i := 0; i < n; i += directBatch {
				if err := mon.FeedBatch(txs[i:min(i+directBatch, n)]); err != nil {
					return 0, err
				}
			}
			return time.Since(start), nil
		}},
	}
	if h.p.Kind == "churn" {
		stages = append(stages, stage{"feedsync", func() (time.Duration, error) {
			return timeFeedSync(set, h.p.K, txs)
		}})
	}
	turns := make(map[string][]float64, len(stages))
	for rep := 0; rep < isolateReps; rep++ {
		for _, st := range stages {
			runtime.GC()
			d, err := st.run()
			if err != nil {
				return err
			}
			turns[st.name] = append(turns[st.name], float64(d))
		}
	}
	cost := func(name string) float64 { return median(turns[name]) }
	perTx := func(name string) float64 { return cost(name) / float64(n) }

	m.set("weblog.parse_ns_per_tx", perTx("parse"), "ns")
	m.set("features.extract_ns_per_tx", perTx("extract"), "ns")
	compose, wpt := perTx("compose"), float64(windows)/float64(n)
	m.set("features.compose_ns_per_tx", compose, "ns")
	m.set("features.windows_per_tx", wpt, "ratio")
	score := ratio(cost("score"), float64(len(vecs)))
	m.set("svm.score_ns_per_window", score, "ns")
	m.set("svm.screened_ratio", ratio(float64(kernel.ScreenedModels), float64(len(vecs)*len(models))), "ratio")
	m.set("svm.postings_per_window", ratio(float64(kernel.PostingsVisited), float64(len(vecs))), "count")
	m.set("svm.fallback_ratio", ratio(float64(kernel.FallbackDecisions), float64(kernel.FusedDecisions+kernel.FallbackDecisions)), "ratio")
	single := perTx("single_thread")
	glue := single - (compose + score*wpt)
	m.set("core.single_thread_ns_per_tx", single, "ns")
	m.set("core.glue_ns_per_tx", glue, "ns")
	m.set("trace.unexplained_ratio", ratio(glue, single), "ratio")
	if h.p.Kind == "churn" {
		m.set("cluster.feedsync_ns_per_tx", perTx("feedsync"), "ns")
	}

	runtime.GC()
	return isolateIdentifier(set, h.p.K, txs, m)
}

// isolateIdentifier times Identifier.Feed for the sample's busiest
// devices, once: each standalone Identifier builds its own scoring index,
// so only a few devices are timed.
func isolateIdentifier(set *webtxprofile.ProfileSet, k int, txs []weblog.Transaction, m metrics) error {
	const devices = 8
	count := make(map[string]int)
	for i := range txs {
		count[txs[i].SourceIP]++
	}
	busiest := make([]string, 0, len(count))
	for d := range count {
		busiest = append(busiest, d)
	}
	sort.Slice(busiest, func(i, j int) bool {
		if count[busiest[i]] != count[busiest[j]] {
			return count[busiest[i]] > count[busiest[j]]
		}
		return busiest[i] < busiest[j]
	})
	ids := make(map[string]*webtxprofile.Identifier)
	for _, d := range busiest[:min(devices, len(busiest))] {
		id, err := webtxprofile.NewIdentifier(set, d, k)
		if err != nil {
			return err
		}
		ids[d] = id
	}
	fed := 0
	start := time.Now()
	for i := range txs {
		if id := ids[txs[i].SourceIP]; id != nil {
			if _, err := id.Feed(txs[i]); err != nil {
				return err
			}
			fed++
		}
	}
	m.set("core.identifier_ns_per_tx", ratio(float64(time.Since(start)), float64(fed)), "ns")
	return nil
}

// timeFeedSync times NodeClient.FeedSync — a feed plus its
// acknowledgement — against a fresh node, in collector-sized batches.
func timeFeedSync(set *webtxprofile.ProfileSet, k int, txs []weblog.Transaction) (time.Duration, error) {
	node, err := webtxprofile.ListenClusterNode("127.0.0.1:0", set, webtxprofile.ClusterNodeConfig{Name: "isolated", K: k})
	if err != nil {
		return 0, err
	}
	defer node.Close()
	c, err := webtxprofile.DialClusterNode(node.Addr().String(), func(webtxprofile.NodeAlert) {})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	start := time.Now()
	for i := 0; i < len(txs); i += directBatch {
		if err := c.FeedSync(txs[i:min(i+directBatch, len(txs))]); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}
