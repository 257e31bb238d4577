package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints: what a user of the
// system sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"max_tx_s", "tx/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"alert_p50_ms", "ms"},
	{"alert_p99_ms", "ms"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics a traced run prints. A metric of a layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"weblog.parse_ns_per_tx", "ns"},
	{"collector.queue_wait_p99_ms", "ms"},
	{"collector.batch_mean", "tx"},
	{"collector.handler_busy_ratio", "ratio"},
	{"collector.send_ns_per_tx", "ns"},
	{"collector.received", "count"},
	{"collector.parse_failures", "count"},
	{"features.extract_ns_per_tx", "ns"},
	{"features.compose_ns_per_tx", "ns"},
	{"features.windows_per_tx", "ratio"},
	{"svm.score_ns_per_window", "ns"},
	{"svm.screened_ratio", "ratio"},
	{"svm.postings_per_window", "count"},
	{"svm.fallback_ratio", "ratio"},
	{"svm.index_mb", "MB"},
	{"svm.index_build_ms", "ms"},
	{"core.feedbatch_ns_per_tx", "ns"},
	{"core.feedbatch_p99_ms", "ms"},
	{"core.identifier_ns_per_tx", "ns"},
	{"core.single_thread_ns_per_tx", "ns"},
	{"core.glue_ns_per_tx", "ns"},
	{"core.alert_delivery_p99_ms", "ms"},
	{"core.devices_live", "count"},
	{"core.build_profiles_s", "s"},
	{"core.checkpoint_s", "s"},
	{"core.restore_s", "s"},
	{"core.checkpoint_us_per_device", "us"},
	{"core.spill_put_ms_p99", "ms"},
	{"core.spill_get_ms_p99", "ms"},
	{"core.spill_bytes_per_put", "B"},
	{"cluster.router_feedbatch_ns_per_tx", "ns"},
	{"cluster.sync_ms", "ms"},
	{"cluster.feedsync_ns_per_tx", "ns"},
	{"cluster.bytes_per_tx", "B"},
	{"cluster.node_skew", "ratio"},
	{"cluster.addnode_ms", "ms"},
	{"cluster.removenode_ms", "ms"},
	{"cluster.warm_restores", "count"},
	{"statestore.gets", "count"},
	{"statestore.hit_ratio", "ratio"},
	{"statestore.queue_full", "count"},
	{"statestore.flush_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.offered_tx_s", "tx/s"},
	{"loadgen.p99_all_ms", "ms"},
	{"loadgen.alert_p99_all_ms", "ms"},
	{"loadgen.latency_n", "count"},
	{"loadgen.alert_n", "count"},
	{"loadgen.miss_ratio", "ratio"},
	{"loadgen.error_ratio", "ratio"},
	{"trace.unexplained_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// result is one run's outcome: the contract's summary fields, the printed
// metrics, and the metadata needed to compare runs.
type result struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	Params     params   `json:"params"`
	Meta       meta     `json:"meta"`
	Correct    bool     `json:"correct"`
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	Mismatches []string `json:"mismatches,omitempty"`
	Failures   []string `json:"failures,omitempty"`
	Metrics    metrics  `json:"metrics"`
}

// meta records what ran the benchmark.
type meta struct {
	ScoringEngine string `json:"scoring_engine"`
	CPU           string `json:"cpu"`
	NumCPU        int    `json:"num_cpu"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	GitRev        string `json:"git_rev,omitempty"`
	// PhaseS is the wall time of each kind of phase of the run, in
	// seconds (repeated phases summed).
	PhaseS map[string]float64 `json:"phase_s"`
	// SaturationTxS is each saturation segment's rate; max_tx_s is their
	// median.
	SaturationTxS []float64 `json:"saturation_tx_s"`
}

// result derives the printed metrics from what the phases recorded.
func (h *harness) result() *result {
	rec := h.rec
	res := &result{
		Workload: h.p.Name, Seed: h.o.seed, Seconds: h.o.seconds, Trace: h.o.trace, Params: *h.p,
		Meta: meta{
			ScoringEngine: h.sys.engine(),
			CPU:           cpuModel(),
			NumCPU:        runtime.NumCPU(),
			GOMAXPROCS:    runtime.GOMAXPROCS(0),
			GoVersion:     runtime.Version(),
			GitRev:        gitRev(),
		},
		Mismatches: h.mismatches,
	}
	for _, pt := range h.parts {
		res.Attempted += int64(pt.to - pt.from + len(pt.restore))
	}
	rec.mu.Lock()
	res.Failed = rec.failed
	res.Failures = slices.Clone(rec.failures)
	rec.mu.Unlock()
	if col := h.sys.collector(); col != nil {
		res.Failed += max(0, int64(h.total)-col.Received()) + col.ParseFailures()
	}
	res.Correct = len(h.mismatches) == 0

	// The open loop's two halves: latencies, lags and spans of these
	// positions and times are the ones that count.
	var lat, lags []float64
	var latAt []int64
	var openNs int64
	late := 0
	for _, sc := range h.open {
		openNs += sc.at(sc.to) - sc.t0
		for k := sc.from; k < sc.to; k++ {
			l := float64(rec.doneAt[k]-sc.at(k)) / 1e6
			lat, latAt = append(lat, l), append(latAt, sc.at(k))
			lags = append(lags, float64(rec.lag[k])/1e6)
			if l > h.p.SLOms {
				late++
			}
		}
	}
	n := len(lat)
	from, to := h.open[0].t0, h.open[len(h.open)-1].at(h.open[len(h.open)-1].to)
	alat, alatAt, adel := h.alertLatencies()
	windows := max(1, int(float64(to-from)/float64(tailWindow)))

	e2e := metrics{}
	e2e.set("setup_s", median(h.setupS), "s")
	e2e.set("max_tx_s", median(h.satTxS), "tx/s")
	e2e.set("p50_ms", windowed(latAt, lat, from, to, windows, 50), "ms")
	e2e.set("p99_ms", windowed(latAt, lat, from, to, windows, 99), "ms")
	e2e.set("alert_p50_ms", windowed(alatAt, alat, from, to, windows, 50), "ms")
	e2e.set("alert_p99_ms", windowed(alatAt, alat, from, to, windows, 99), "ms")
	e2e.set("heap_mb", h.heapMB, "MB")
	if !h.o.trace {
		res.Metrics = e2e
		return res
	}

	m := metrics{}
	for _, d := range perLayer {
		m.set(d.name, 0, d.unit)
	}
	if col := h.sys.collector(); col != nil {
		var qwait, sizes []float64
		var busy int64
		for _, b := range rec.batches {
			if !h.isOpen(b.first) {
				continue
			}
			qwait = append(qwait, float64(b.start-rec.sched(b.first))/1e6)
			sizes = append(sizes, float64(b.n))
			busy += b.end - b.start
		}
		m.set("collector.queue_wait_p99_ms", percentile(qwait, 99), "ms")
		m.set("collector.batch_mean", mean(sizes), "tx")
		m.set("collector.handler_busy_ratio", ratio(float64(busy), float64(openNs)), "ratio")
		m.set("collector.send_ns_per_tx", ratio(float64(h.sendBusy), float64(n)), "ns")
		m.set("collector.received", float64(col.Received()), "count")
		m.set("collector.parse_failures", float64(col.ParseFailures()), "count")
	}
	fb := h.openSpans("core.feedbatch")
	m.set("core.feedbatch_ns_per_tx", ratio(sum(fb), float64(n)), "ns")
	m.set("core.feedbatch_p99_ms", percentile(fb, 99)/1e6, "ms")
	m.set("core.alert_delivery_p99_ms", percentile(adel, 99), "ms")
	devices := 0
	for _, d := range h.live {
		devices += d
	}
	m.set("core.devices_live", float64(devices), "count")
	m.set("core.build_profiles_s", median(h.buildS), "s")
	m.set("core.checkpoint_s", h.checkpointS, "s")
	m.set("core.restore_s", h.restoreS, "s")
	m.set("core.checkpoint_us_per_device", ratio(h.checkpointS*1e6, float64(h.spilled)), "us")
	tr := rec.tr
	m.set("core.spill_put_ms_p99", percentile(tr.durations("core.spill_put", 0, math.MaxInt64), 99)/1e6, "ms")
	m.set("core.spill_get_ms_p99", percentile(tr.durations("core.spill_get", 0, math.MaxInt64), 99)/1e6, "ms")
	if h.p.Kind == "churn" {
		m.set("cluster.router_feedbatch_ns_per_tx", ratio(sum(h.openSpans("cluster.router_feedbatch")), float64(n)), "ns")
		m.set("cluster.sync_ms", mean(h.openSpans("cluster.sync"))/1e6, "ms")
		var owners []float64
		for _, d := range h.live {
			if d > 0 {
				owners = append(owners, float64(d))
			}
		}
		m.set("cluster.node_skew", ratio(slices.Max(append(owners, 0)), mean(owners)), "ratio")
	}
	h.sys.report(m, int(res.Attempted))

	var sendNs float64
	for _, sc := range h.open {
		first, last := sc.from, sc.to-1
		sendNs += float64(sc.at(last)+rec.lag[last]) - float64(sc.at(first)+rec.lag[first])
	}
	m.set("loadgen.lag_p99_ms", percentile(lags, 99), "ms")
	m.set("loadgen.offered_tx_s", ratio(float64(n-len(h.open)), sendNs/1e9), "tx/s")
	m.set("loadgen.p99_all_ms", percentile(lat, 99), "ms")
	m.set("loadgen.alert_p99_all_ms", percentile(alat, 99), "ms")
	m.set("loadgen.latency_n", float64(n), "count")
	m.set("loadgen.alert_n", float64(len(alat)), "count")
	m.set("loadgen.miss_ratio", ratio(float64(late)+float64(res.Failed), float64(n)), "ratio")
	m.set("loadgen.error_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	m.set("trace.overhead_ratio", 1-ratio(ratio(float64(h.tracedN), float64(h.tracedNs)), ratio(float64(h.untracedN), float64(h.untracedNs))), "ratio")
	res.Metrics = m
	return res
}

// isOpen reports whether stream position k belongs to the open loop.
func (h *harness) isOpen(k int) bool {
	for _, sc := range h.open {
		if k >= sc.from && k < sc.to {
			return true
		}
	}
	return false
}

// openSpans returns the durations of the named spans that started during
// the open loop's halves.
func (h *harness) openSpans(name string) []float64 {
	var out []float64
	for _, sc := range h.open {
		out = append(out, h.rec.tr.durations(name, sc.t0, sc.at(sc.to))...)
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// tailWindow is the window of the latency metrics: each is the first
// quartile, over the open loop's 100 ms windows, of the window's
// percentile (nearest rank; in a window of fewer than 100 alerts the 99th
// is its largest). The shared host this benchmark was built on runs the
// same code at two speeds about 1.6× apart, switching every fraction of a
// second to minutes, and garbage-collection cycles stall the feed path for
// tens of milliseconds a few times per run. A percentile over the whole
// loop, or the median over windows, reads how much of the loop the slow
// spells covered; across ten seeds its spread reached 30–46%. The first
// quartile over windows reads the latency the system delivers outside
// those spells, and a change to the feed path moves every window. The
// whole-loop 99th percentiles are per-layer metrics and show stalls.
const tailWindow = 100 * time.Millisecond

// windowed groups samples (at[i], vals[i]) into n equal windows of
// [from, to) by time and returns the first quartile of the windows' p-th
// percentiles.
func windowed(at []int64, vals []float64, from, to int64, n int, p float64) float64 {
	wins := make([][]float64, n)
	for i, t := range at {
		w := min(max(int(float64(t-from)/float64(to-from)*float64(n)), 0), n-1)
		wins[w] = append(wins[w], vals[i])
	}
	var ps []float64
	for _, w := range wins {
		if len(w) > 0 {
			ps = append(ps, percentile(w, p))
		}
	}
	return percentile(ps, 25)
}

// alertLatencies maps each alert to the transaction that closed its
// window — the device's first one at or after the window's end — and,
// for those closed during the open loop, returns scheduled send → alert
// callback (with the closing transaction's scheduled time) and closing
// feed's return → alert callback, in ms.
func (h *harness) alertLatencies() (lat []float64, at []int64, delivery []float64) {
	in, rec := h.in, h.rec
	pos := make([][]int32, len(in.clones))
	for k := 0; k < h.total; k++ {
		c := in.stream[k].clone
		pos[c] = append(pos[c], int32(k))
	}
	cloneOf := in.cloneIndex()
	rec.mu.Lock()
	alerts := slices.Clone(rec.alerts)
	rec.mu.Unlock()
	for _, a := range alerts {
		c, ok := cloneOf[a.device]
		if !ok || a.end == 0 {
			continue
		}
		ps := pos[c]
		j := sort.Search(len(ps), func(i int) bool { return in.at(int(ps[i])).UnixNano() >= a.end })
		if j == len(ps) {
			continue
		}
		if k := int(ps[j]); h.isOpen(k) {
			lat = append(lat, float64(a.at-rec.sched(k))/1e6)
			at = append(at, rec.sched(k))
			delivery = append(delivery, float64(a.at-rec.doneAt[k])/1e6)
		}
	}
	return lat, at, delivery
}

// cpuModel is the first "model name" of /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitRev reads the commit the working directory is checked out at from
// its .git directory, without running git ("" outside a clone).
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return ""
}
