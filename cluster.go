package webtxprofile

import (
	"webtxprofile/internal/cluster"
)

// Multi-node deployment: a ClusterRouter places devices on ClusterNodes
// by rendezvous hashing and rebalances on membership changes by draining
// exactly the devices whose placement moved — with per-device alert
// sequences proven byte-identical to a single never-resharded Monitor
// (see internal/cluster's equivalence suites).
type (
	// ClusterNode is one cluster member: a TCP server exposing its
	// Monitor's feed, park and flush operations plus an alert push
	// stream. Members spill through the shared state tier.
	ClusterNode = cluster.Node
	// ClusterNodeConfig configures a cluster member (name, threshold,
	// monitor tuning, local alert tap).
	ClusterNodeConfig = cluster.NodeConfig
	// ClusterRouter is the cluster front end: rendezvous placement,
	// transaction forwarding, drain-based rebalancing, alert fan-in.
	ClusterRouter = cluster.Router
	// ClusterRouterConfig tunes the router.
	ClusterRouterConfig = cluster.RouterConfig
	// ClusterMember names and addresses one node of the membership view.
	ClusterMember = cluster.Member
	// ClusterMembership is the router's versioned membership view.
	ClusterMembership = cluster.Membership
	// NodeAlert is an identity transition tagged with its origin node —
	// the router's fan-in alert unit.
	NodeAlert = cluster.NodeAlert
	// ClusterNodeClient is a low-level client for one node's wire
	// protocol (the router manages these internally; exposed for tools).
	ClusterNodeClient = cluster.NodeClient
	// ClusterGossipServer accepts gossip exchanges from replica routers:
	// each inbound exchange reconciles membership views and placement
	// overrides in both directions.
	ClusterGossipServer = cluster.GossipServer
	// ClusterGossipState is one router's shareable state — the versioned
	// membership view and the override table replicas converge on.
	ClusterGossipState = cluster.GossipState
	// ClusterStats snapshots the process-wide replication and
	// rebalancing counters: gossip rounds, view adoptions, override
	// entries/tombstones, drains settled back on the source, warm
	// restores and failover reroutes.
	ClusterStats = cluster.ClusterStats
)

// ReadClusterStats returns the replication/rebalancing counters
// (cumulative since process start); profilerd logs a snapshot at
// front-end shutdown.
func ReadClusterStats() ClusterStats { return cluster.ReadClusterStats() }

// ResetClusterStats zeroes the replication/rebalancing counters.
func ResetClusterStats() { cluster.ResetClusterStats() }

// ListenClusterNode starts a cluster node on addr over a trained profile
// set; the node owns a sharded Monitor configured by cfg. A node that
// joins a router needs cfg.Monitor.Spill on the state tier
// (DialStateStore): devices move between nodes only through it.
func ListenClusterNode(addr string, set *ProfileSet, cfg ClusterNodeConfig) (*ClusterNode, error) {
	return cluster.ListenNode(addr, set, cfg)
}

// NewClusterRouter creates a router with no members; alerts receives
// every identity transition from every node, tagged with its origin.
// Add nodes with AddNode before feeding.
func NewClusterRouter(alerts func(NodeAlert), cfg ClusterRouterConfig) *ClusterRouter {
	return cluster.NewRouter(alerts, cfg)
}

// DialClusterNode connects to a node's wire protocol directly (the
// router does this internally; exposed for diagnostics and tools). There
// is one wire version and no negotiation, so a node from another build
// fails the handshake.
func DialClusterNode(addr string, onAlert func(NodeAlert)) (*ClusterNodeClient, error) {
	return cluster.DialNode(addr, onAlert)
}

// ServeClusterGossip starts a gossip listener for a router so replica
// routers (ClusterRouter.GossipWith) can reconcile state with it. Any
// number of replicas can front the same nodes; gossip carries the two
// things placement cannot re-derive — the versioned membership view and
// the routing overrides.
func ServeClusterGossip(r *ClusterRouter, addr string) (*ClusterGossipServer, error) {
	return cluster.ServeGossip(r, addr)
}
