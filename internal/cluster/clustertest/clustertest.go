// Package clustertest is the in-process multi-node test harness for the
// cluster router: it spins up real Nodes on loopback TCP, wires a Router
// with a recording alert sink, generates normalized workloads, and
// computes single-monitor reference alert sequences — the shared fixture
// of the equivalence, chaos and regression suites, reusable by future
// PRs. Everything runs in one process so the suites work under -race and
// need no external orchestration.
package clustertest

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"webtxprofile/internal/cluster"
	"webtxprofile/internal/core"
	"webtxprofile/internal/svm"
	"webtxprofile/internal/synth"
	"webtxprofile/internal/weblog"
)

// trainedSet is built once per test binary: training dominates the cost
// of every cluster suite, the clusters under test are cheap.
var (
	trainedOnce sync.Once
	trainedSet  *core.ProfileSet
	trainedDS   *weblog.Dataset
	trainedErr  error
)

// TrainedSet returns the shared compact profile set and its held-out test
// dataset (the workload source), training them on first use.
func TrainedSet(tb testing.TB) (*core.ProfileSet, *weblog.Dataset) {
	tb.Helper()
	trainedOnce.Do(func() {
		cfg := synth.DefaultConfig()
		cfg.Users = 6
		cfg.SmallUsers = 1
		cfg.Devices = 5
		cfg.Weeks = 3
		cfg.Services = 150
		cfg.Archetypes = 6
		cfg.ConfusableUsers = 0
		cfg.ServicesPerUserMin = 10
		cfg.ServicesPerUserMax = 18
		cfg.WeeklyTxMedian = 1600
		cfg.WeeklyTxSigma = 0.4
		cfg.MinKeptTx = 2600
		g, err := synth.NewGenerator(cfg)
		if err != nil {
			trainedErr = err
			return
		}
		trainedSet, trainedDS, trainedErr = core.Train(g.Generate(),
			core.Config{MaxTrainWindows: 300, Workers: 2, Train: svm.TrainConfig{CacheMB: 16}})
	})
	if trainedErr != nil {
		tb.Fatal(trainedErr)
	}
	return trainedSet, trainedDS
}

// Workload fans the dataset's chronological transactions out over n
// synthetic devices round-robin (every device sees a mix of users, each
// device's subsequence stays time-ordered) and normalizes each
// transaction through the proxies' log-line format, so a stream fed
// directly to a reference monitor is bit-for-bit the stream a collector
// parses in front of the cluster (the line format keeps millisecond
// timestamps in UTC; the cluster's binary records carry it unchanged).
func Workload(tb testing.TB, ds *weblog.Dataset, n, limit int) ([]weblog.Transaction, []string) {
	tb.Helper()
	txs := append([]weblog.Transaction(nil), ds.Transactions...)
	sort.SliceStable(txs, func(i, j int) bool { return txs[i].Timestamp.Before(txs[j].Timestamp) })
	if len(txs) > limit {
		txs = txs[:limit]
	}
	devices := make([]string, n)
	for i := range devices {
		devices[i] = fmt.Sprintf("10.9.%d.%d", i/256, i%256)
	}
	out := make([]weblog.Transaction, len(txs))
	for i, tx := range txs {
		tx.SourceIP = devices[i%n]
		norm, err := weblog.ParseLine(tx.MarshalLine())
		if err != nil {
			tb.Fatalf("transaction does not survive the log-line format: %v", err)
		}
		out[i] = norm
	}
	return out, devices
}

// Sig reduces an alert to the comparable signature the equivalence suites
// assert on: everything identity-relevant, nothing scheduling-dependent.
func Sig(a core.Alert) string {
	return fmt.Sprintf("%s|%v|%s|%s|%s|%s",
		a.Device, a.Kind, a.User, a.Previous,
		a.Event.Window.Start.Format(time.RFC3339Nano), a.Event.Identified)
}

// Recorder gathers per-device alert signatures from a cluster run, plus
// which node each alert originated on. Safe for concurrent use.
//
// Alerts carrying a node sequence number are deduplicated on
// (node, seq), so one Recorder can be shared by several router replicas
// subscribed to the same nodes: each node's stream arrives in sequence
// order on every subscription, so first-delivery-wins keeps per-device
// order intact while collapsing the copies.
type Recorder struct {
	mu      sync.Mutex
	sigs    map[string][]string
	origins map[string]int // alerts per origin node
	seen    map[string]bool
	dups    int
}

// NewRecorder returns an empty alert recorder.
func NewRecorder() *Recorder {
	return &Recorder{sigs: make(map[string][]string), origins: make(map[string]int), seen: make(map[string]bool)}
}

// Record is the Router fan-in callback.
func (r *Recorder) Record(a cluster.NodeAlert) {
	r.mu.Lock()
	if a.Seq != 0 {
		key := fmt.Sprintf("%s#%d", a.Node, a.Seq)
		if r.seen[key] {
			r.dups++
			r.mu.Unlock()
			return
		}
		r.seen[key] = true
	}
	r.sigs[a.Alert.Device] = append(r.sigs[a.Alert.Device], Sig(a.Alert))
	r.origins[a.Node]++
	r.mu.Unlock()
}

// Dups reports how many duplicate alert deliveries were collapsed —
// nonzero proves a replicated subscription actually overlapped.
func (r *Recorder) Dups() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dups
}

// Sigs returns a copy of the per-device alert signature sequences.
func (r *Recorder) Sigs() map[string][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]string, len(r.sigs))
	for d, s := range r.sigs {
		out[d] = append([]string(nil), s...)
	}
	return out
}

// Origins returns alert counts per origin node.
func (r *Recorder) Origins() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.origins))
	for n, c := range r.origins {
		out[n] = c
	}
	return out
}

// ReferenceSigs replays the workload through one never-resharded monitor
// and returns its per-device alert signature sequences — the ground truth
// every cluster topology must reproduce byte-identically.
func ReferenceSigs(tb testing.TB, set *core.ProfileSet, k int, txs []weblog.Transaction) map[string][]string {
	tb.Helper()
	var mu sync.Mutex
	got := make(map[string][]string)
	mon, err := core.NewMonitor(set, k, func(a core.Alert) {
		mu.Lock()
		got[a.Device] = append(got[a.Device], Sig(a))
		mu.Unlock()
	})
	if err != nil {
		tb.Fatal(err)
	}
	for _, tx := range txs {
		if err := mon.Feed(tx); err != nil {
			tb.Fatal(err)
		}
	}
	mon.Flush()
	mon.Close()
	return got
}

// AssertSameSigs compares per-device alert sequences and fails the test
// on any divergence. An empty reference fails too: a workload that alerts
// on nothing proves nothing.
func AssertSameSigs(tb testing.TB, want, got map[string][]string) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Errorf("alerting devices: got %d, want %d", len(got), len(want))
	}
	total := 0
	for device, w := range want {
		g := got[device]
		if len(g) != len(w) {
			tb.Errorf("device %s: %d alerts, want %d", device, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				tb.Errorf("device %s alert %d:\n got %s\nwant %s", device, i, g[i], w[i])
				break
			}
		}
		total += len(w)
	}
	if total == 0 {
		tb.Fatal("reference produced no alerts — test exercises nothing")
	}
}

// Harness is one in-process cluster: N live nodes joined to a router that
// records alerts. Close tears everything down.
type Harness struct {
	Set    *core.ProfileSet
	K      int
	Router *cluster.Router
	Alerts *Recorder

	mu       sync.Mutex
	nodes    map[string]*cluster.Node
	nodeCfg  cluster.NodeConfig
	nodePrep func(name string, cfg *cluster.NodeConfig)
}

// NewHarness starts one node per name, a router, and joins the nodes in
// order. The nodes run default monitor configs (no eviction) over the
// shared trained set.
func NewHarness(tb testing.TB, set *core.ProfileSet, k int, names ...string) *Harness {
	tb.Helper()
	return NewHarnessConfig(tb, set, k, HarnessConfig{}, names...)
}

// HarnessConfig customizes a harness beyond the defaults — the chaos
// suites use it to shorten the reconnect schedule and enable the staged
// and idle sweeps.
type HarnessConfig struct {
	// Router seeds the router's config.
	Router cluster.RouterConfig
	// Node seeds every node's config; Name and K are set per node by the
	// harness.
	Node cluster.NodeConfig
	// NodePrep, when set, customizes each node's config after the
	// defaults are applied and before the node starts listening — the
	// state-tier suites use it to dial a per-node spill client (each
	// monitor needs its own write-behind queue; sharing one client would
	// merge views the versioning protocol keeps apart).
	NodePrep func(name string, cfg *cluster.NodeConfig)
}

// NewHarnessConfig is NewHarness with full configuration.
func NewHarnessConfig(tb testing.TB, set *core.ProfileSet, k int, cfg HarnessConfig, names ...string) *Harness {
	tb.Helper()
	h := &Harness{
		Set:      set,
		K:        k,
		Alerts:   NewRecorder(),
		nodes:    make(map[string]*cluster.Node),
		nodeCfg:  cfg.Node,
		nodePrep: cfg.NodePrep,
	}
	h.Router = cluster.NewRouter(h.Alerts.Record, cfg.Router)
	for _, name := range names {
		h.Join(tb, name)
	}
	tb.Cleanup(h.Close)
	return h
}

// StartNode launches a node without joining it (the caller drives
// AddNode), registering it for teardown.
func (h *Harness) StartNode(tb testing.TB, name string) *cluster.Node {
	tb.Helper()
	cfg := h.nodeCfg
	cfg.Name, cfg.K = name, h.K
	if h.nodePrep != nil {
		h.nodePrep(name, &cfg)
	}
	n, err := cluster.ListenNode("127.0.0.1:0", h.Set, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	h.mu.Lock()
	h.nodes[name] = n
	h.mu.Unlock()
	return n
}

// Join starts a node and adds it to the router's membership.
func (h *Harness) Join(tb testing.TB, name string) *cluster.Node {
	tb.Helper()
	n := h.StartNode(tb, name)
	if err := h.Router.AddNode(cluster.Member{Name: name, Addr: n.Addr().String()}); err != nil {
		tb.Fatal(err)
	}
	return n
}

// Node returns a started node by name (nil if unknown).
func (h *Harness) Node(name string) *cluster.Node {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nodes[name]
}

// Close disconnects the router and stops every node. Idempotent.
func (h *Harness) Close() {
	h.Router.Close()
	h.mu.Lock()
	defer h.mu.Unlock()
	for name, n := range h.nodes {
		n.Close()
		delete(h.nodes, name)
	}
}
