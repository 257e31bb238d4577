package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"webtxprofile"
	"webtxprofile/internal/cluster"
	"webtxprofile/internal/core"
	"webtxprofile/internal/sparse"
	"webtxprofile/internal/statestore"
	"webtxprofile/internal/svm"
	"webtxprofile/internal/weblog"
)

// system is the program under test as one workload assembles it.
type system interface {
	// ingest opens one connection of the load generator.
	ingest() (sender, error)
	// events are the membership changes to make during the open-loop
	// phase.
	events() []event
	// checkpoint spills every live device to the state layer and returns
	// how many it spilled.
	checkpoint() (int, error)
	// feed hands txs to the system's front end, past the collector — what
	// the collector's handler calls — and returns once they are processed.
	feed(txs []weblog.Transaction) error
	// sync returns once every alert raised so far reached its callback.
	sync() error
	// live reports the live devices of each monitor.
	live() []int
	profiles() *core.ProfileSet
	engine() string
	footprint() svm.IndexFootprint
	// collector is the ingest server, nil under direct ingest.
	collector() *webtxprofile.CollectorServer
	// report adds the system's own per-layer counters.
	report(m metrics, fed int)
	close()
}

// event is a membership change made at fraction at of the open-loop
// phase.
type event struct {
	at float64
	fn func() error
}

// setupSystem builds the workload's system: profiles, monitors, stores
// and listeners — everything timed as set-up. It returns the share of
// that spent building profiles.
func setupSystem(p *params, in *inputs, rec *recorder, seed int64) (system, float64, error) {
	start := time.Now()
	var set *core.ProfileSet
	var err error
	switch p.Kind {
	case "fleet":
		// The paper's per-user tuning (Sect. IV-C) restricted to the
		// Table III cells it selects on this corpus — the RBF kernel at
		// these four ν — so set-up stays a few seconds and can be repeated.
		set, err = webtxprofile.BuildProfiles(in.train, webtxprofile.Config{
			AutoTune:    true,
			GridKernels: []svm.Kernel{svm.RBF(1 / float64(in.dim))},
			GridParams:  []float64{0.1, 0.05, 0.01, 0.001},
		})
	case "population":
		set, err = populationProfiles(in, p.Profiles, seed)
	case "churn":
		set, err = webtxprofile.BuildProfiles(in.train, webtxprofile.Config{})
	default:
		err = fmt.Errorf("unknown workload kind %q", p.Kind)
	}
	if err != nil {
		return nil, 0, err
	}
	build := time.Since(start).Seconds()
	var sys system
	if p.Kind == "churn" {
		sys, err = newClusterSystem(p, in, set, rec)
	} else {
		sys, err = newMonitorSystem(p, in, set, rec)
	}
	return sys, build, err
}

// populationProfiles grafts calibrated synthetic RBF profiles onto the
// profiles trained on the corpus, up to u profiles over the corpus's real
// vocabulary. The trained profiles keep identifying the cloned devices'
// users, so alerts still flow; the synthetic ones make the fused index as
// large as a 2k-user enterprise's.
func populationProfiles(in *inputs, u int, seed int64) (*core.ProfileSet, error) {
	real, err := webtxprofile.BuildProfiles(in.train, webtxprofile.Config{})
	if err != nil {
		return nil, err
	}
	set := &core.ProfileSet{
		Vocabulary: real.Vocabulary,
		Window:     real.Window,
		Algorithm:  svm.OCSVM,
		Profiles:   make(map[string]*core.Profile, u),
	}
	for id, pr := range real.Profiles {
		set.Profiles[id] = pr
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; len(set.Profiles) < u; i++ {
		m, err := calibratedModel(r, real.Vocabulary.Size())
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("synth-user-%05d", i)
		set.Profiles[id] = &core.Profile{UserID: id, Model: m, TrainWindows: 50}
	}
	return set, nil
}

// calibratedModel builds one synthetic RBF OC-SVM profile the way
// per-user training shapes them: the user's windows draw from a 60-column
// "home" vocabulary subset, the RBF width discriminates same-user from
// alien windows, dual coefficients cluster near the 1/(νn) training
// bound, and ρ sits just under the weakest training vector's kernel sum,
// so every training support vector is accepted and alien windows are
// decisively rejected.
func calibratedModel(r *rand.Rand, dim int) (*svm.Model, error) {
	home := r.Perm(dim)[:min(60, dim)]
	m := &svm.Model{Algo: svm.OCSVM, Kernel: svm.RBF(0.3), Param: 0.1, TrainSize: 50}
	for s := 0; s < 50; s++ {
		dense := make(map[int]float64, 20)
		for len(dense) < min(20, len(home)) {
			dense[home[r.Intn(len(home))]] = 0.1 + r.Float64()
		}
		m.SVs = append(m.SVs, sparse.New(dense))
		m.Coef = append(m.Coef, 0.4+0.2*r.Float64())
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	// With ρ = 0, Decision(x) is the raw kernel sum Σαᵢk(xᵢ,x).
	minS := math.Inf(1)
	for _, sv := range m.SVs {
		minS = min(minS, m.Decision(sv))
	}
	m.Rho = 0.9 * minS
	return m, nil
}

// timedStore wraps a monitor's spill store in a traced run, recording a
// span per call and the bytes written.
type timedStore struct {
	core.StateStore
	tr             *tracer
	puts, putBytes atomic.Int64
}

func (s *timedStore) Put(device string, blob []byte) error {
	s.puts.Add(1)
	s.putBytes.Add(int64(len(blob)))
	return s.tr.wrap("core.spill_put", func() error { return s.StateStore.Put(device, blob) })
}

func (s *timedStore) Get(device string) (blob []byte, ok bool, err error) {
	err = s.tr.wrap("core.spill_get", func() error {
		var gerr error
		blob, ok, gerr = s.StateStore.Get(device)
		return gerr
	})
	return blob, ok, err
}

// spillFor returns the store a monitor spills to: st itself, or its
// traced wrapper (kept in *into for the report).
func spillFor(st core.StateStore, tr *tracer, into *[]*timedStore) core.StateStore {
	if tr == nil {
		return st
	}
	ts := &timedStore{StateStore: st, tr: tr}
	*into = append(*into, ts)
	return ts
}

// monitorSystem is one Monitor: behind a log-line collector (fleet-lines)
// or fed directly by the generator (population-2k).
type monitorSystem struct {
	in     *inputs
	rec    *recorder
	set    *core.ProfileSet
	mon    *webtxprofile.Monitor
	col    *webtxprofile.CollectorServer
	stores []*timedStore
	dir    string
}

func newMonitorSystem(p *params, in *inputs, set *core.ProfileSet, rec *recorder) (_ *monitorSystem, err error) {
	s := &monitorSystem{in: in, rec: rec, set: set}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	var spill core.StateStore
	if p.Kind == "fleet" {
		if s.dir, err = os.MkdirTemp("", "wtpbench-state-"); err != nil {
			return nil, err
		}
		if spill, err = webtxprofile.NewDiskStateStore(s.dir); err != nil {
			return nil, err
		}
	} else {
		spill = webtxprofile.NewMemStateStore()
	}
	s.mon, err = webtxprofile.NewMonitorWithConfig(set, p.K, rec.alert, webtxprofile.MonitorConfig{
		Spill: spillFor(spill, rec.tr, &s.stores),
	})
	if err != nil {
		return nil, err
	}
	if p.Kind == "fleet" {
		s.col, err = webtxprofile.ListenCollectorBatch("127.0.0.1:0", func(txs []weblog.Transaction) {
			rec.deliver(s.feed, txs)
		}, webtxprofile.CollectorBatchConfig{})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *monitorSystem) feed(txs []weblog.Transaction) error {
	return s.rec.tr.wrap("core.feedbatch", func() error { return s.mon.FeedBatch(txs) })
}

func (s *monitorSystem) ingest() (sender, error) {
	if s.col == nil {
		return newDirectSender(s.in, s.rec, s.feed), nil
	}
	return dialLines(s.in, s.col.Addr().String())
}

func (s *monitorSystem) events() []event { return nil }

func (s *monitorSystem) checkpoint() (int, error) {
	n, _, err := s.mon.Checkpoint()
	return n, err
}

func (s *monitorSystem) sync() error                   { s.mon.Sync(); return nil }
func (s *monitorSystem) live() []int                   { return []int{s.mon.Devices()} }
func (s *monitorSystem) profiles() *core.ProfileSet    { return s.set }
func (s *monitorSystem) engine() string                { return s.mon.ScoringEngine() }
func (s *monitorSystem) footprint() svm.IndexFootprint { return s.mon.ScoringFootprint() }

func (s *monitorSystem) collector() *webtxprofile.CollectorServer { return s.col }

func (s *monitorSystem) report(m metrics, fed int) { reportStores(m, s.stores) }

func (s *monitorSystem) close() {
	if s.col != nil {
		s.col.Close()
	}
	if s.mon != nil {
		s.mon.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// reportStores reports the spill traffic the traced store wrappers saw.
func reportStores(m metrics, stores []*timedStore) {
	var puts, bytes int64
	for _, s := range stores {
		puts += s.puts.Load()
		bytes += s.putBytes.Load()
	}
	m.set("core.spill_bytes_per_put", ratio(float64(bytes), float64(puts)), "B")
}

// Cluster node names: two founding members and the one that joins and
// leaves during the open-loop phase.
var nodeNames = []string{"node-a", "node-b", "node-c"}

// clusterSystem is the cluster-churn deployment in one process: a
// binary collector in front of a Router with a shared state tier, three
// nodes (the third joins and leaves mid-run), each spilling through its
// own write-behind client to one in-memory state server.
type clusterSystem struct {
	in      *inputs
	rec     *recorder
	set     *core.ProfileSet
	state   *statestore.Server
	clients []*statestore.Client
	stores  []*timedStore
	nodes   []*webtxprofile.ClusterNode
	members []webtxprofile.ClusterMember
	relays  []*relay
	router  *webtxprofile.ClusterRouter
	col     *webtxprofile.CollectorServer

	stats0                   cluster.ClusterStats
	addMs, removeMs, flushMs float64
}

func newClusterSystem(p *params, in *inputs, set *core.ProfileSet, rec *recorder) (_ *clusterSystem, err error) {
	s := &clusterSystem{in: in, rec: rec, set: set, stats0: webtxprofile.ReadClusterStats()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	s.state, err = statestore.ListenServer("127.0.0.1:0", statestore.ServerConfig{
		ErrorLog: log.New(os.Stderr, "statestore: ", 0),
	})
	if err != nil {
		return nil, err
	}
	for _, name := range nodeNames {
		c, err := statestore.Dial(s.state.Addr().String(), statestore.ClientConfig{})
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, c)
		n, err := webtxprofile.ListenClusterNode("127.0.0.1:0", set, webtxprofile.ClusterNodeConfig{
			Name: name,
			K:    p.K,
			Monitor: webtxprofile.MonitorConfig{
				Spill:       spillFor(c, rec.tr, &s.stores),
				SharedSpill: true,
				IdleTTL:     time.Duration(p.IdleTTLs * float64(time.Second)),
			},
		})
		if err != nil {
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		addr := n.Addr().String()
		if rec.tr != nil {
			// Traced runs count the cluster wire's bytes through a relay in
			// front of each node.
			rl, err := newRelay(addr)
			if err != nil {
				return nil, err
			}
			s.relays = append(s.relays, rl)
			addr = rl.addr()
		}
		s.members = append(s.members, webtxprofile.ClusterMember{Name: name, Addr: addr})
	}
	s.router = webtxprofile.NewClusterRouter(rec.clusterAlert, webtxprofile.ClusterRouterConfig{
		SharedState: true,
		Client:      cluster.ClientConfig{OnDrop: rec.fail},
	})
	for _, m := range s.members[:2] {
		if err := s.router.AddNode(m); err != nil {
			return nil, err
		}
	}
	s.col, err = webtxprofile.ListenCollectorBatch("127.0.0.1:0", func(txs []weblog.Transaction) {
		rec.deliver(s.feed, txs)
	}, webtxprofile.CollectorBatchConfig{})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// feed routes one batch and waits until its owners processed it: a
// transaction counts as processed when Router.Sync returns after it.
func (s *clusterSystem) feed(txs []weblog.Transaction) error {
	s.rec.ingest.Lock()
	defer s.rec.ingest.Unlock()
	err := s.rec.tr.wrap("cluster.router_feedbatch", func() error { return s.router.FeedBatch(txs) })
	return errors.Join(err, s.rec.tr.wrap("cluster.sync", s.router.Sync))
}

func (s *clusterSystem) ingest() (sender, error) {
	c, err := webtxprofile.DialCollectorBinary(s.col.Addr().String())
	if err != nil {
		return nil, err
	}
	return binarySender{s.in, c}, nil
}

// events joins the third node at a third of the open-loop phase and
// removes it at two thirds.
func (s *clusterSystem) events() []event {
	return []event{
		{at: 1.0 / 3, fn: func() error {
			return s.churn("cluster.addnode", &s.addMs, func() error { return s.router.AddNode(s.members[2]) })
		}},
		{at: 2.0 / 3, fn: func() error {
			return s.churn("cluster.removenode", &s.removeMs, func() error { return s.router.RemoveNode(nodeNames[2]) })
		}},
	}
}

// churn makes one membership change the way the state tier supports it
// losslessly: with no feed in flight, every node checkpoints its live
// devices and drains its write-behind queue, then the route flips and
// each moved device rehydrates from the server on its next transaction
// (a warm restore). Ingest stalls meanwhile, so the whole change shows in
// the latencies; ms records the membership call alone.
//
// A live drain is deliberately not exercised: a device handed off live
// to a node whose client never saw its version is spilled there with a
// version at or below a tombstone an earlier rehydrate planted, the
// server drops that write as stale, and the device later restarts from
// scratch — the correctness gate catches the divergent alerts.
func (s *clusterSystem) churn(name string, ms *float64, change func() error) error {
	s.rec.ingest.Lock()
	defer s.rec.ingest.Unlock()
	if _, err := s.checkpoint(); err != nil {
		return err
	}
	start := time.Now()
	err := s.rec.tr.wrap(name, change)
	*ms = float64(time.Since(start)) / 1e6
	return err
}

// checkpoint spills every node's live devices, then drains the
// write-behind queues to the server.
func (s *clusterSystem) checkpoint() (int, error) {
	total := 0
	var errs []error
	for _, n := range s.nodes {
		spilled, _, err := n.Monitor().Checkpoint()
		total += spilled
		errs = append(errs, err)
	}
	start := time.Now()
	for _, c := range s.clients {
		errs = append(errs, c.Flush())
	}
	s.flushMs = float64(time.Since(start)) / 1e6
	return total, errors.Join(errs...)
}

func (s *clusterSystem) sync() error { return s.router.Sync() }

func (s *clusterSystem) live() []int {
	out := make([]int, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = n.Monitor().Devices()
	}
	return out
}

func (s *clusterSystem) profiles() *core.ProfileSet { return s.set }
func (s *clusterSystem) engine() string             { return s.nodes[0].Monitor().ScoringEngine() }
func (s *clusterSystem) footprint() svm.IndexFootprint {
	return s.nodes[0].Monitor().ScoringFootprint()
}
func (s *clusterSystem) collector() *webtxprofile.CollectorServer { return s.col }

func (s *clusterSystem) report(m metrics, fed int) {
	reportStores(m, s.stores)
	var wire int64
	for _, rl := range s.relays {
		wire += rl.bytes.Load()
	}
	m.set("cluster.bytes_per_tx", ratio(float64(wire), float64(fed)), "B")
	m.set("cluster.addnode_ms", s.addMs, "ms")
	m.set("cluster.removenode_ms", s.removeMs, "ms")
	m.set("cluster.warm_restores", float64(webtxprofile.ReadClusterStats().Sub(s.stats0).WarmRestores), "count")
	st := s.state.Stats()
	m.set("statestore.gets", float64(st.Gets), "count")
	m.set("statestore.hit_ratio", ratio(float64(st.GetHits), float64(st.Gets)), "ratio")
	var full uint64
	for _, c := range s.clients {
		full += c.Stats().QueueFull
	}
	m.set("statestore.queue_full", float64(full), "count")
	m.set("statestore.flush_ms", s.flushMs, "ms")
}

func (s *clusterSystem) close() {
	if s.col != nil {
		s.col.Close()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
	for _, c := range s.clients {
		c.Close()
	}
	if s.state != nil {
		s.state.Close()
	}
	for _, rl := range s.relays {
		rl.close()
	}
}

// relay is a byte-counting TCP forwarder placed in front of a node in
// traced runs.
type relay struct {
	ln     net.Listener
	target string
	bytes  atomic.Int64
	wg     sync.WaitGroup

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
}

func newRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rl := &relay{ln: ln, target: target}
	rl.wg.Add(1)
	go rl.accept()
	return rl, nil
}

func (rl *relay) addr() string { return rl.ln.Addr().String() }

func (rl *relay) accept() {
	defer rl.wg.Done()
	for {
		in, err := rl.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", rl.target)
		if err != nil {
			in.Close()
			continue
		}
		rl.mu.Lock()
		if rl.closed {
			rl.mu.Unlock()
			in.Close()
			out.Close()
			return
		}
		rl.conns = append(rl.conns, in, out)
		rl.mu.Unlock()
		rl.wg.Add(2)
		go rl.pipe(out, in)
		go rl.pipe(in, out)
	}
}

// pipe copies one direction, counting bytes as they pass; when it ends it
// closes both sides, which ends the other direction too.
func (rl *relay) pipe(dst, src net.Conn) {
	defer rl.wg.Done()
	io.Copy(countingWriter{dst, &rl.bytes}, src)
	dst.Close()
	src.Close()
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (rl *relay) close() {
	rl.mu.Lock()
	rl.closed = true
	for _, c := range rl.conns {
		c.Close()
	}
	rl.mu.Unlock()
	rl.ln.Close()
	rl.wg.Wait()
}
