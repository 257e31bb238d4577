package webtxprofile

import (
	"io"
	"os"
	"time"

	"webtxprofile/internal/core"
	"webtxprofile/internal/eval"
	"webtxprofile/internal/features"
	"webtxprofile/internal/svm"
	"webtxprofile/internal/synth"
	"webtxprofile/internal/taxonomy"
	"webtxprofile/internal/weblog"
)

// Domain types, re-exported so downstream code only imports this package.
type (
	// Transaction is one augmented proxy-log record.
	Transaction = weblog.Transaction
	// Dataset is an in-memory transaction collection with per-user and
	// per-device views.
	Dataset = weblog.Dataset
	// MediaType is a MIME-style media type split into super/sub-type.
	MediaType = taxonomy.MediaType
	// Reputation is the URL reputation level assigned by the logging
	// service.
	Reputation = taxonomy.Reputation
	// WindowConfig holds the sliding-window parameters (duration D,
	// shift S).
	WindowConfig = features.WindowConfig
	// Window is one aggregated transaction window.
	Window = features.Window
	// Config parameterizes Train; its zero value selects the paper's
	// defaults (D=60s, S=30s, OC-SVM, linear kernel, ν=0.1, 75/25 split).
	Config = core.Config
	// Profile is one user's trained profile.
	Profile = core.Profile
	// ProfileSet is the trained artifact: vocabulary + one model per user.
	ProfileSet = core.ProfileSet
	// Identifier streams transactions from one device and reports which
	// profiled user is at the keyboard.
	Identifier = core.Identifier
	// Event is one streaming identification step.
	Event = core.Event
	// ConfusionMatrix is the differentiation result (Table V shape).
	ConfusionMatrix = eval.ConfusionMatrix
	// Acceptance is the (ACC_self, ACC_other) pair with ACC() = their
	// difference.
	Acceptance = eval.Acceptance
	// TimelinePoint is one step of a device-identification timeline.
	TimelinePoint = eval.TimelinePoint
	// Kernel selects and parameterizes a kernel function.
	Kernel = svm.Kernel
	// Algorithm selects the one-class classifier family.
	Algorithm = svm.Algorithm
	// Model is a trained one-class classifier.
	Model = svm.Model
	// Monitor tracks every device in a transaction stream and raises
	// Alerts on identity transitions — the reusable core of the
	// continuous-authentication daemon. Devices are lock-striped across
	// shards; alerts are delivered from a dedicated goroutine.
	Monitor = core.Monitor
	// MonitorConfig tunes the monitor's sharding, idle-device eviction
	// and alert buffering.
	MonitorConfig = core.MonitorConfig
	// Alert is one identity transition on a monitored device.
	Alert = core.Alert
	// AlertKind distinguishes identification from identity loss.
	AlertKind = core.AlertKind
	// Refresher retrains profiles on recently observed windows to track
	// behavioural drift.
	Refresher = core.Refresher
	// RefresherConfig bounds the refresh buffers.
	RefresherConfig = core.RefresherConfig
	// StateStore persists evicted devices' identification state so idle
	// eviction, device moves and process restarts keep window buffers
	// and consecutive-accept streaks.
	StateStore = core.StateStore
	// MemStateStore is the in-process StateStore.
	MemStateStore = core.MemStateStore
	// DiskStateStore is the directory-backed StateStore (one file per
	// device holding its raw blob).
	DiskStateStore = core.DiskStateStore
	// IdentifierState is a serializable streaming-identifier snapshot.
	IdentifierState = core.IdentifierState
	// DeviceState is the portable per-device monitor state (identifier
	// snapshot plus confirmed identity), the unit StateStores hold.
	DeviceState = core.DeviceState
	// SynthConfig parameterizes synthetic benchmark generation.
	SynthConfig = synth.Config
	// SynthSegment is one user-interval of a device scenario.
	SynthSegment = synth.Segment
)

// Algorithms.
const (
	// OCSVM is the ν-one-class SVM of Schölkopf et al.
	OCSVM = svm.OCSVM
	// SVDD is the Support Vector Data Description of Tax & Duin.
	SVDD = svm.SVDD
)

// Alert kinds.
const (
	// AlertIdentified fires when a user reaches the consecutive-window
	// threshold on a device.
	AlertIdentified = core.AlertIdentified
	// AlertLost fires when a confirmed identity stops matching.
	AlertLost = core.AlertLost
)

// Reputation levels.
const (
	Unverified  = taxonomy.Unverified
	MinimalRisk = taxonomy.MinimalRisk
	MediumRisk  = taxonomy.MediumRisk
	HighRisk    = taxonomy.HighRisk
)

// Kernel constructors.
var (
	// LinearKernel returns the linear kernel k(x,y) = x·y.
	LinearKernel = svm.Linear
	// RBFKernel returns the Gaussian kernel with parameter γ.
	RBFKernel = svm.RBF
	// PolyKernel returns the polynomial kernel (γ·x·y + c₀)^d.
	PolyKernel = svm.Poly
	// SigmoidKernel returns tanh(γ·x·y + c₀).
	SigmoidKernel = svm.Sigmoid
)

// ReadLog parses a transaction log stream into a dataset.
func ReadLog(r io.Reader) (*Dataset, error) {
	return weblog.NewReader(r).ReadAll()
}

// ReadLogFile parses a transaction log file into a dataset.
func ReadLogFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadLog(f)
}

// WriteLog writes a dataset in the self-describing log-line format.
func WriteLog(w io.Writer, ds *Dataset) error {
	return weblog.WriteDataset(w, ds)
}

// Train runs the full pipeline of the paper on a raw dataset: drop
// under-represented users, split each user's history chronologically,
// build the data-driven feature vocabulary, window, optionally grid-search
// per-user parameters, and fit one model per user. It returns the trained
// set and the held-out test dataset.
func Train(ds *Dataset, cfg Config) (*ProfileSet, *Dataset, error) {
	return core.Train(ds, cfg)
}

// BuildProfiles trains on an already-prepared training corpus (no
// filtering or splitting).
func BuildProfiles(train *Dataset, cfg Config) (*ProfileSet, error) {
	return core.BuildProfiles(train, cfg)
}

// LoadProfiles restores a profile set saved with ProfileSet.Save.
func LoadProfiles(r io.Reader) (*ProfileSet, error) {
	return core.Load(r)
}

// LoadProfilesFile restores a profile set from a file written with
// ProfileSet.SaveFile.
func LoadProfilesFile(path string) (*ProfileSet, error) {
	return core.LoadFile(path)
}

// NewIdentifier creates a streaming identifier for one device;
// consecutiveK consecutive accepted windows identify a user.
func NewIdentifier(set *ProfileSet, host string, consecutiveK int) (*Identifier, error) {
	return core.NewIdentifier(set, host, consecutiveK)
}

// NewMonitor creates a multi-device monitor over a trained profile set
// with the default configuration; alerts receives every identity
// transition.
func NewMonitor(set *ProfileSet, consecutiveK int, alerts func(Alert)) (*Monitor, error) {
	return core.NewMonitor(set, consecutiveK, alerts)
}

// NewMonitorWithConfig creates a monitor with explicit shard count, idle
// eviction TTL and alert buffering.
func NewMonitorWithConfig(set *ProfileSet, consecutiveK int, alerts func(Alert), cfg MonitorConfig) (*Monitor, error) {
	return core.NewMonitorWithConfig(set, consecutiveK, alerts, cfg)
}

// NewRefresher wraps a profile set for drift-tracking retrains.
func NewRefresher(set *ProfileSet, cfg RefresherConfig) (*Refresher, error) {
	return core.NewRefresher(set, cfg)
}

// NewMemStateStore returns an in-memory identifier-state store: evicted
// devices survive eviction (bounding live identifier memory) but not the
// process.
func NewMemStateStore() *MemStateStore {
	return core.NewMemStateStore()
}

// NewDiskStateStore opens (creating if needed) a directory-backed
// identifier-state store whose spilled device states survive process
// restarts — the backing for profilerd's -state-dir.
func NewDiskStateStore(dir string) (*DiskStateStore, error) {
	return core.NewDiskStateStore(dir)
}

// RestoreIdentifier rebuilds a streaming identifier from a snapshot taken
// with Identifier.Snapshot, resuming the exact event sequence.
func RestoreIdentifier(set *ProfileSet, st IdentifierState) (*Identifier, error) {
	return core.RestoreIdentifier(set, st)
}

// IdentifyConsecutive applies the consecutive-window identification rule
// to a batch timeline: the rule the live Identifier applies, ties going to
// the smaller user id.
func IdentifyConsecutive(tl []TimelinePoint, k int) (user string, windowIdx int, ok bool) {
	return eval.IdentifyConsecutive(tl, k)
}

// DefaultSynthConfig returns the paper-shaped synthetic benchmark
// configuration (36 users, 35 devices, 26 weeks).
func DefaultSynthConfig() SynthConfig {
	return synth.DefaultConfig()
}

// GenerateDataset produces a synthetic benchmark dataset — the substitute
// for the vendor's proprietary corpus (see DESIGN.md).
func GenerateDataset(cfg SynthConfig) (*Dataset, error) {
	g, err := synth.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	return g.Generate(), nil
}

// GenerateDeviceScenario produces a Fig. 3-style workload: the listed
// users take turns on one device, each interval filled with that user's
// regular browsing behaviour.
func GenerateDeviceScenario(cfg SynthConfig, device string, start time.Time, segments []SynthSegment) (*Dataset, error) {
	g, err := synth.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	return g.GenerateDeviceScenario(device, start, segments)
}
