package webtxprofile

import "webtxprofile/internal/statestore"

// The fleet-wide state tier: a networked StateStore backend, so spill
// and checkpoint stop assuming a local disk and a device's
// identification state survives the node that held it. See
// internal/statestore for the protocol, the write-behind batching and
// the versioning fence, and internal/cluster for the two payoffs built
// on top (device moves through the tier, failover without a park).
type (
	// StateServer is the authoritative side of the tier: per-device
	// versioned blobs in memory, optionally persisted through any
	// StateStore (profilerd: -state-server, backed by -state-dir).
	StateServer = statestore.Server
	// StateServerConfig configures a StateServer.
	StateServerConfig = statestore.ServerConfig
	// RemoteStateStore is the write-behind client backend: a StateStore
	// whose Put coalesces into a bounded dirty queue flushed by count or
	// age, with read-through Get (profilerd: -state-addr). Each monitor
	// needs its own client.
	RemoteStateStore = statestore.Client
	// RemoteStateConfig tunes the write-behind client.
	RemoteStateConfig = statestore.ClientConfig
)

// ListenStateServer starts a state-tier server on addr.
func ListenStateServer(addr string, cfg StateServerConfig) (*StateServer, error) {
	return statestore.ListenServer(addr, cfg)
}

// DialStateStore connects a write-behind client to the state server at
// addr; the result plugs into MonitorConfig.Spill.
func DialStateStore(addr string, cfg RemoteStateConfig) (*RemoteStateStore, error) {
	return statestore.Dial(addr, cfg)
}
