// Command profilerd is the continuous-authentication daemon from the
// paper's deployment scenario (Sect. I): it receives live transaction logs
// over TCP (the proxy streams its log lines), maintains one streaming
// identifier per device, and reports identification changes — the basis
// for automatic logout (continuous authentication) or administrator alerts
// (intrusion monitoring).
//
// The live path is the sharded streaming engine: parsed transactions are
// batched per connection and fed through Monitor.FeedBatch, devices are
// lock-striped across -shards shards (each with its own scoring scratch),
// alerts are delivered from a dedicated goroutine rather than under a
// lock, and devices idle longer than -idle-ttl (in stream time) are
// evicted so tracked-device memory stays bounded.
//
// With -state-dir the identification state becomes durable: evicted
// devices spill their window buffer, streaks and confirmed identity into
// the directory instead of losing them (rehydrating on their next
// transaction), SIGTERM checkpoints every live device there, and a
// restart over the same directory resumes each device exactly where it
// left off. See README.md for the state lifecycle. SIGINT keeps the
// classic lossy shutdown (flush pending windows, emit final alerts).
//
// With -state-addr the same lifecycle targets the fleet-wide state tier
// instead of a local directory: spills and checkpoints go to a shared
// state server (run one with -state-server, optionally backed by its own
// -state-dir) through a write-behind client, so a device's state
// survives the node that held it. Every -cluster member runs on the
// tier. The front end needs no flag for it: when a membership change
// moves a device, the node it leaves parks it in the tier and its new
// owner rehydrates it on its next transaction, and a dead node's devices
// reroute without a park — they rehydrate lazily at their new owner.
//
// Past one process, profilerd clusters (see README.md for the lifecycle):
//
//   - profilerd -cluster :7100 -node-name nodeA -state-addr host0:7200
//     runs a member node: no proxy-facing collector, just the cluster wire
//     protocol (feed, park, alert push) over its own sharded monitor,
//     spilling through the shared state tier — a member needs one.
//   - profilerd -join nodeA=host1:7100,nodeB=host2:7100 runs the
//     front-end router: the -listen collector ingests proxy log lines,
//     devices are placed on members by rendezvous hashing, membership
//     changes drain only the devices whose placement moved, and every
//     alert is logged with the node it originated on. The front end
//     holds no monitor, so it needs no bundle, and the identification
//     flags (-k, -shards, -idle-ttl, -state-addr) belong on the nodes.
//   - profilerd -state-server :7200 -state-dir /var/lib/profilerd-state
//     runs the shared state tier the nodes point -state-addr at.
//
// Usage:
//
//	profilerd -bundle profiles.gz -listen 127.0.0.1:7000 -k 5 \
//	          -shards 16 -idle-ttl 1h -batch 256 -state-dir /var/lib/profilerd
//	profilerd -state-server 0.0.0.0:7200 -state-dir /var/lib/profilerd-state
//	profilerd -bundle profiles.gz -cluster 0.0.0.0:7100 -node-name nodeA \
//	          -state-addr host0:7200
//	profilerd -listen 127.0.0.1:7000 -join nodeA=host1:7100,nodeB=host2:7100
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the default mux for -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"webtxprofile"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "profilerd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		bundle    = flag.String("bundle", "profiles.gz", "trained profile bundle")
		listen    = flag.String("listen", "127.0.0.1:7000", "TCP listen address for proxy log lines")
		k         = flag.Int("k", 5, "consecutive accepted windows for identification")
		shards    = flag.Int("shards", 16, "device lock stripes in the monitor")
		idleTTL   = flag.Duration("idle-ttl", time.Hour, "evict devices idle this long in stream time (0 disables)")
		batch     = flag.Int("batch", 256, "max transactions per ingestion batch")
		ingestQ   = flag.Int("ingest-queue", 0, "bounded ingest queue depth; senders block (TCP backpressure) when full (0 = 4x -batch)")
		stateDir  = flag.String("state-dir", "", "durable identifier state: spill evicted devices here, checkpoint on SIGTERM, restore on start; backing store in -state-server mode (empty disables)")
		stateSrv  = flag.String("state-server", "", "run as the fleet-wide state tier: serve the state protocol on this address (optionally backed by -state-dir)")
		stateAddr = flag.String("state-addr", "", "spill and checkpoint to the state server at this address through a write-behind client instead of a local -state-dir")
		clusterL  = flag.String("cluster", "", "run as a cluster node: serve the node wire protocol on this address instead of a proxy collector")
		nodeName  = flag.String("node-name", "", "this node's cluster name (default: hostname; -cluster mode)")
		join      = flag.String("join", "", "run as the cluster front end routing to these members: comma-separated name=addr pairs")
		gossipL   = flag.String("gossip", "", "serve router gossip on this address so replica front ends can reconcile their membership views (-join mode)")
		peers     = flag.String("peers", "", "comma-separated gossip addresses of replica front ends to exchange state with periodically (-join mode)")
		pprofA    = flag.String("pprof", "", "serve net/http/pprof on this address for live profiling of the scoring path (empty disables)")
	)
	flag.Parse()
	if *clusterL != "" && *join != "" {
		return fmt.Errorf("-cluster and -join are mutually exclusive: a process is a member or the front end")
	}
	if *stateSrv != "" && (*clusterL != "" || *join != "") {
		return fmt.Errorf("-state-server is its own role: it is neither a member (-cluster) nor the front end (-join)")
	}
	if *stateAddr != "" && *stateDir != "" {
		return fmt.Errorf("-state-addr and -state-dir are mutually exclusive: state spills to the shared tier or to a local directory, not both")
	}
	if *clusterL != "" && *stateAddr == "" {
		// Devices move between members only through the shared state
		// tier: a member parks a moving device there and its new owner
		// rehydrates it. A local -state-dir is not shared.
		return fmt.Errorf("-cluster needs the state tier: set -state-addr to a -state-server (a local -state-dir cannot move devices between members)")
	}
	// Refuse explicitly-set flags the selected role would silently
	// ignore — a dead flag on a daemon is a misconfiguration, not a
	// default.
	switch {
	case *stateSrv != "":
		// The state server holds no monitor and no collector: it serves
		// versioned device blobs, nothing else. Only -state-dir (its
		// backing store) travels with it.
		if err := rejectMisplacedFlags("the -state-server tier (only -state-dir configures it)",
			"bundle", "listen", "k", "shards", "idle-ttl", "batch", "ingest-queue", "node-name",
			"gossip", "peers", "pprof", "state-addr"); err != nil {
			return err
		}
	case *join != "":
		// The front end holds no monitor: identification state, eviction
		// and the threshold all live on the member nodes — and so does the
		// scoring hot path (-pprof profiles it live). The nodes
		// also own the state tier: they park moving devices there, so
		// the front end never needs to know it exists (-state-addr).
		if err := rejectMisplacedFlags("the -join front end (set them on the -cluster processes)",
			"bundle", "k", "shards", "idle-ttl", "state-dir", "state-addr", "node-name", "pprof"); err != nil {
			return err
		}
	case *clusterL != "":
		// A member node serves the cluster protocol only; the proxy-facing
		// collector (and its batching) lives on the front end, as does
		// router replication.
		if err := rejectMisplacedFlags("a -cluster member node (set them on the -join front end)",
			"listen", "batch", "ingest-queue", "gossip", "peers"); err != nil {
			return err
		}
	default:
		if err := rejectMisplacedFlags("a standalone daemon (-node-name names a -cluster member, -gossip/-peers replicate the front end)",
			"node-name", "gossip", "peers"); err != nil {
			return err
		}
	}
	logger := log.New(os.Stdout, "profilerd: ", log.LstdFlags)

	if *stateSrv != "" {
		return runStateServer(logger, *stateSrv, *stateDir)
	}
	if *join != "" {
		return runRouter(logger, *join, *listen, *batch, *ingestQ, *gossipL, *peers)
	}

	if *pprofA != "" {
		// net/http/pprof registers its handlers on the default mux at
		// import time; serving the default mux on a dedicated listener
		// exposes /debug/pprof/ without touching the collector or cluster
		// listeners.
		ln, err := net.Listen("tcp", *pprofA)
		if err != nil {
			return fmt.Errorf("-pprof listen: %w", err)
		}
		logger.Printf("pprof serving on http://%s/debug/pprof/", ln.Addr())
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				logger.Printf("pprof server stopped: %v", err)
			}
		}()
	}

	set, err := webtxprofile.LoadProfilesFile(*bundle)
	if err != nil {
		return err
	}

	var tier *stateTier
	switch {
	case *stateAddr != "":
		remote, err := webtxprofile.DialStateStore(*stateAddr, webtxprofile.RemoteStateConfig{})
		if err != nil {
			return fmt.Errorf("-state-addr %s: %w", *stateAddr, err)
		}
		tier = &stateTier{remote: remote, desc: "state server " + *stateAddr}
		logger.Printf("spilling to %s (write-behind); devices resume on their next transaction wherever they land", tier.desc)
	case *stateDir != "":
		disk, err := openStateDir(logger, *stateDir)
		if err != nil {
			return err
		}
		tier = &stateTier{disk: disk, desc: "state-dir " + *stateDir}
		spilled, err := disk.Devices()
		if err != nil {
			return err
		}
		if len(spilled) > 0 {
			// Restore-on-start is lazy: each device rehydrates — window
			// buffer, streaks and confirmed identity intact — when its
			// first transaction arrives.
			logger.Printf("state-dir %s holds %d checkpointed devices; they resume on their next transaction",
				*stateDir, len(spilled))
		}
	}
	monCfg := webtxprofile.MonitorConfig{Shards: *shards, IdleTTL: *idleTTL, Spill: tier.store()}

	if *clusterL != "" {
		return runNode(logger, set, *clusterL, *nodeName, *k, monCfg, tier)
	}
	return runStandalone(logger, set, *listen, *k, monCfg, *batch, *ingestQ, tier)
}

// openStateDir opens a -state-dir store and reports the earlier build's
// device states it dropped: those devices restart fresh.
func openStateDir(logger *log.Logger, dir string) (*webtxprofile.DiskStateStore, error) {
	disk, err := webtxprofile.NewDiskStateStore(dir)
	if err != nil {
		return nil, err
	}
	if n := disk.DroppedLegacy(); n > 0 {
		logger.Printf("state-dir %s: dropped %d .state.gz files of an earlier build (a format no longer read); those devices restart fresh", dir, n)
	}
	return disk, nil
}

// stateTier is whichever spill backend the role resolved — at most one of
// disk/remote is set; a nil *stateTier means no durable state at all. Its
// methods are nil-safe so callers never branch on presence.
type stateTier struct {
	disk   *webtxprofile.DiskStateStore
	remote *webtxprofile.RemoteStateStore
	desc   string // human name for logs: "state-dir /x" or "state server host:port"
}

// store returns the tier as the monitor's Spill field without wrapping a
// typed nil in a non-nil interface.
func (t *stateTier) store() webtxprofile.StateStore {
	switch {
	case t == nil:
		return nil
	case t.remote != nil:
		return t.remote
	case t.disk != nil:
		return t.disk
	}
	return nil
}

// runStandalone is the classic single-process daemon: collector → monitor.
func runStandalone(logger *log.Logger, set *webtxprofile.ProfileSet, listen string, k int,
	monCfg webtxprofile.MonitorConfig, batch, ingestQ int, tier *stateTier) error {
	mon, err := webtxprofile.NewMonitorWithConfig(set, k, func(a webtxprofile.Alert) {
		logAlert(logger, "", a)
	}, monCfg)
	if err != nil {
		return err
	}

	srv, err := webtxprofile.ListenCollectorBatch(listen, func(txs []webtxprofile.Transaction) {
		if err := mon.FeedBatch(txs); err != nil {
			logger.Printf("feed: %v", err)
		}
	}, webtxprofile.CollectorBatchConfig{MaxBatch: batch, QueueDepth: ingestQ})
	if err != nil {
		return err
	}
	defer srv.Close()
	logger.Printf("scoring engine %s; index %s", mon.ScoringEngine(), mon.ScoringFootprint())
	logger.Printf("listening on %s with %d profiles (k=%d, %d shards, idle-ttl %v)",
		srv.Addr(), len(set.Profiles), k, monCfg.Shards, monCfg.IdleTTL)

	s := waitSignal()
	srv.Close() // stop ingestion before the final flush or checkpoint
	return shutdownMonitor(logger, mon, s, tier)
}

// runNode serves the cluster wire protocol over this process's monitor.
func runNode(logger *log.Logger, set *webtxprofile.ProfileSet, addr, name string, k int,
	monCfg webtxprofile.MonitorConfig, tier *stateTier) error {
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			return fmt.Errorf("-node-name not set and hostname unavailable: %w", err)
		}
		name = host
	}
	node, err := webtxprofile.ListenClusterNode(addr, set, webtxprofile.ClusterNodeConfig{
		Name:     name,
		K:        k,
		Monitor:  monCfg,
		OnAlert:  func(a webtxprofile.Alert) { logAlert(logger, name, a) },
		ErrorLog: logger,
	})
	if err != nil {
		return err
	}
	defer node.Close()
	logger.Printf("scoring engine %s; index %s", node.Monitor().ScoringEngine(), node.Monitor().ScoringFootprint())
	logger.Printf("cluster node %s serving on %s with %d profiles (k=%d, %d shards)",
		name, node.Addr(), len(set.Profiles), k, monCfg.Shards)

	s := waitSignal()
	// Stop serving before deciding what happens to the live state, so no
	// router can keep feeding a monitor that is flushing or
	// checkpointing — Stop (not Close) keeps the monitor usable for that
	// decision.
	node.Stop()
	return shutdownMonitor(logger, node.Monitor(), s, tier)
}

// runStateServer is the fleet-wide state tier: versioned device blobs in
// memory, optionally persisted through a disk store, served to every
// node's write-behind client.
func runStateServer(logger *log.Logger, addr, stateDir string) error {
	cfg := webtxprofile.StateServerConfig{ErrorLog: logger}
	if stateDir != "" {
		backing, err := openStateDir(logger, stateDir)
		if err != nil {
			return err
		}
		cfg.Backing = backing
	}
	srv, err := webtxprofile.ListenStateServer(addr, cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	if stateDir != "" {
		logger.Printf("state server on %s backed by %s (%d devices loaded)", srv.Addr(), stateDir, srv.Len())
	} else {
		logger.Printf("state server on %s (in-memory: device state survives node restarts, not a server restart)", srv.Addr())
	}

	waitSignal()
	n := srv.Len()
	err = srv.Close()
	logger.Printf("state server shutting down holding %d devices", n)
	return err
}

// runRouter is the front end: proxy log lines in, rendezvous-routed
// transactions out to the member nodes, origin-tagged alerts logged.
// With -gossip/-peers the front end is replicated: replicas reconcile
// their membership views by periodic anti-entropy exchanges, and each one
// routes independently (placement is a pure function of the view, alerts
// deduplicate downstream on their node sequence numbers).
func runRouter(logger *log.Logger, join, listen string, batch, ingestQ int,
	gossipAddr, peers string) error {
	members, err := parseMembers(join)
	if err != nil {
		return err
	}
	router := webtxprofile.NewClusterRouter(func(a webtxprofile.NodeAlert) {
		logAlert(logger, a.Node, a.Alert)
	}, webtxprofile.ClusterRouterConfig{})
	defer router.Close()
	for _, m := range members {
		if err := router.AddNode(m); err != nil {
			return fmt.Errorf("joining %s at %s: %w", m.Name, m.Addr, err)
		}
		logger.Printf("joined node %s at %s", m.Name, m.Addr)
	}

	if gossipAddr != "" {
		gs, err := webtxprofile.ServeClusterGossip(router, gossipAddr)
		if err != nil {
			return fmt.Errorf("-gossip listen: %w", err)
		}
		defer gs.Close()
		logger.Printf("gossip serving on %s", gs.Addr())
	}
	if peers != "" {
		var list []string
		for _, p := range strings.Split(peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				list = append(list, p)
			}
		}
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			// One failed peer must not silence the others: exchanges are
			// independent, and a peer that was down converges on its next
			// successful round.
			t := time.NewTicker(5 * time.Second)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					for _, p := range list {
						if err := router.GossipWith(p); err != nil {
							logger.Printf("gossip %s: %v", p, err)
						}
					}
				}
			}
		}()
	}

	srv, err := webtxprofile.ListenCollectorBatch(listen, func(txs []webtxprofile.Transaction) {
		if err := router.FeedBatch(txs); err != nil {
			logger.Printf("route: %v", err)
		}
	}, webtxprofile.CollectorBatchConfig{MaxBatch: batch, QueueDepth: ingestQ})
	if err != nil {
		return err
	}
	defer srv.Close()
	view := router.View()
	logger.Printf("routing %s across %d nodes (membership v%d)", srv.Addr(), len(view.Members), view.Version)

	waitSignal()
	srv.Close() // stop ingestion, then let the nodes finish their streams
	if err := router.Flush(); err != nil {
		logger.Printf("flush: %v", err)
	}
	cs := webtxprofile.ReadClusterStats()
	logger.Printf("cluster stats: %d gossip rounds, %d view adoptions, %d membership changes called off, %d warm restores, %d failover reroutes",
		cs.GossipRounds, cs.ViewAdoptions, cs.HandoffAborts, cs.WarmRestores, cs.FailoverReroutes)
	logger.Printf("shutting down after routing %d devices", router.Devices())
	return nil
}

// shutdownMonitor applies the shared shutdown contract: SIGTERM with a
// state tier checkpoints (lossless restart), anything else flushes (lossy
// end-of-stream alerts). Checkpoint drains a write-behind tier before it
// returns — a queued spill is not a durable one.
func shutdownMonitor(logger *log.Logger, mon *webtxprofile.Monitor, s os.Signal, tier *stateTier) error {
	devices := mon.Devices()
	if tier.store() != nil && s == syscall.SIGTERM {
		// Durable shutdown: persist every live device instead of flushing,
		// so a restart over the same state tier resumes each one exactly —
		// no partial windows emitted, no synthetic session-end alerts.
		spilled, failed, err := mon.Checkpoint()
		mon.Close()
		if tier.remote != nil {
			if cerr := tier.remote.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
		}
		if err != nil {
			if spilled > 0 {
				logger.Printf("checkpointed %d devices to %s before the failure", spilled, tier.desc)
			}
			return fmt.Errorf("checkpoint (%d devices failed): %w", failed, err)
		}
		logger.Printf("checkpointed %d devices to %s", spilled, tier.desc)
		return nil
	}
	mon.Flush()
	mon.Close()
	if tier != nil && tier.remote != nil {
		// Lossy shutdown over the shared tier: drop the queue (the devices
		// just emitted their final alerts) but close the connection cleanly.
		if err := tier.remote.Close(); err != nil {
			logger.Printf("closing state client: %v", err)
		}
	}
	logger.Printf("shutting down after monitoring %d devices", devices)
	return nil
}

// logAlert renders one identity transition; origin is the cluster node it
// came from ("" for the in-process monitor).
func logAlert(logger *log.Logger, origin string, a webtxprofile.Alert) {
	prefix := ""
	if origin != "" {
		prefix = "[" + origin + "] "
	}
	switch {
	case a.Kind == webtxprofile.AlertIdentified:
		logger.Printf("%sdevice %s: identified %s (window %s, %d models accepted)",
			prefix, a.Device, a.User, a.Event.Window.Start.Format("15:04:05"), len(a.Event.Accepted))
	case a.Kind == webtxprofile.AlertLost && a.Event.Window.Start.IsZero():
		// Idle eviction: the session ended silently, with no closing
		// window.
		logger.Printf("%sdevice %s: ALERT — %s's session ended (device idle, evicted)",
			prefix, a.Device, a.User)
	case a.Kind == webtxprofile.AlertLost:
		logger.Printf("%sdevice %s: ALERT — activity no longer matches %s (window %s)",
			prefix, a.Device, a.User, a.Event.Window.Start.Format("15:04:05"))
	}
}

// rejectMisplacedFlags errors when any of the named flags was set on the
// command line but has no effect in the selected role (flag.Visit only
// sees explicitly-set flags, so defaults never trip it).
func rejectMisplacedFlags(role string, dead ...string) error {
	deadSet := make(map[string]bool, len(dead))
	for _, d := range dead {
		deadSet[d] = true
	}
	var misplaced []string
	flag.Visit(func(f *flag.Flag) {
		if deadSet[f.Name] {
			misplaced = append(misplaced, "-"+f.Name)
		}
	})
	if len(misplaced) > 0 {
		return fmt.Errorf("%s: no effect on %s", strings.Join(misplaced, ", "), role)
	}
	return nil
}

// parseMembers parses the -join list: name=addr,name=addr,...
func parseMembers(s string) ([]webtxprofile.ClusterMember, error) {
	var out []webtxprofile.ClusterMember
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("-join entry %q is not name=addr", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("-join names %s twice", name)
		}
		seen[name] = true
		out = append(out, webtxprofile.ClusterMember{Name: name, Addr: addr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-join lists no members")
	}
	return out, nil
}

func waitSignal() os.Signal {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return <-sig
}
