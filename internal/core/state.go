package core

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// stateVersion guards the serialized identifier-state format: the
// per-device blobs a StateStore holds and the shard blobs ExportStaged
// produces. Bump it when DeviceState (or anything it embeds) changes
// incompatibly — decode rejects mismatched versions, like persist.go's
// bundle loader.
const stateVersion = 1

// DeviceState is the portable identification state of one monitored
// device: the streaming identifier's snapshot plus the monitor-level
// identity tracking (the currently confirmed user and the stream-time
// last-seen stamp driving idle eviction). It is everything a Monitor needs
// to resume the device exactly where another Monitor — or a previous
// process — left off.
type DeviceState struct {
	Version int    `json:"version"`
	Device  string `json:"device"`
	// Current is the confirmed user at snapshot time ("" if none).
	Current string `json:"current,omitempty"`
	// LastSeen is the device's stream-clock last-activity stamp; the
	// importing monitor clamps it into its own clock's sane range.
	LastSeen   time.Time       `json:"last_seen"`
	Identifier IdentifierState `json:"identifier"`
}

// encodeDeviceState serializes one device blob (plain JSON; the disk store
// adds gzip).
func encodeDeviceState(st DeviceState) ([]byte, error) {
	st.Version = stateVersion
	b, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("core: encoding state for device %s: %w", st.Device, err)
	}
	return b, nil
}

// decodeDeviceState parses and version-checks one device blob.
func decodeDeviceState(blob []byte) (DeviceState, error) {
	var st DeviceState
	if err := json.Unmarshal(blob, &st); err != nil {
		return DeviceState{}, fmt.Errorf("core: decoding device state: %w", err)
	}
	if st.Version != stateVersion {
		return DeviceState{}, fmt.Errorf("core: unsupported device state version %d (want %d)", st.Version, stateVersion)
	}
	if st.Device == "" {
		return DeviceState{}, fmt.Errorf("core: device state missing device id")
	}
	return st, nil
}

// StateStore persists evicted devices' identification state so an idle
// eviction — or a process restart — no longer severs the device's window
// buffer and consecutive-accept streak. The Monitor spills a device's
// state on eviction (MonitorConfig.Spill) and transparently rehydrates it
// when the device's next transaction arrives.
//
// Blobs are opaque versioned bytes produced by the Monitor; a store only
// keys them by device. Implementations must be safe for concurrent use —
// different monitor shards spill and rehydrate concurrently.
type StateStore interface {
	// Put stores the blob for a device, replacing any previous one.
	Put(device string, blob []byte) error
	// Get returns the stored blob, with ok=false when the device has no
	// spilled state (which is not an error).
	Get(device string) (blob []byte, ok bool, err error)
	// Delete removes the device's blob; deleting an absent device is not
	// an error.
	Delete(device string) error
	// Devices lists the devices with stored state, sorted.
	Devices() ([]string, error)
	// Flush makes every Put that has returned durable where the store's
	// other readers see it: a no-op for stores that write through, the
	// write-behind drain for a shared tier's client.
	Flush() error
}

// MemStateStore is an in-process StateStore: spilled devices survive
// eviction (bounding live identifier memory to the active population)
// but not the process. Safe for concurrent use.
type MemStateStore struct {
	mu    sync.RWMutex
	blobs map[string][]byte
}

// NewMemStateStore returns an empty in-memory state store.
func NewMemStateStore() *MemStateStore {
	return &MemStateStore{blobs: make(map[string][]byte)}
}

// Put stores a copy of the blob.
func (s *MemStateStore) Put(device string, blob []byte) error {
	s.mu.Lock()
	s.blobs[device] = append([]byte(nil), blob...)
	s.mu.Unlock()
	return nil
}

// Get returns the stored blob for device.
func (s *MemStateStore) Get(device string) ([]byte, bool, error) {
	s.mu.RLock()
	blob, ok := s.blobs[device]
	s.mu.RUnlock()
	return blob, ok, nil
}

// Delete removes the device's blob.
func (s *MemStateStore) Delete(device string) error {
	s.mu.Lock()
	delete(s.blobs, device)
	s.mu.Unlock()
	return nil
}

// Devices lists devices with stored state, sorted.
func (s *MemStateStore) Devices() ([]string, error) {
	s.mu.RLock()
	out := make([]string, 0, len(s.blobs))
	for d := range s.blobs {
		out = append(out, d)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out, nil
}

// Flush is a no-op: Put is already visible to every reader.
func (s *MemStateStore) Flush() error { return nil }

// Len returns the number of stored device blobs.
func (s *MemStateStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blobs)
}

// diskStateSuffix names the per-device state files a DiskStateStore
// writes: <url.PathEscape(device)>.state.gz in the store directory.
const diskStateSuffix = ".state.gz"

// DiskStateStore is a StateStore keeping one gzip-compressed blob file per
// device in a directory, so spilled identification state survives process
// restarts — the profilerd -state-dir backing. Writes are atomic (temp
// file + rename, like ProfileSet.SaveFile) and an in-memory presence index
// built at open time makes the Get miss — every first-seen device of a
// monitor with spilling enabled — a map lookup instead of a stat.
//
// Safe for concurrent use within one process; the directory must not be
// shared by multiple live processes.
type DiskStateStore struct {
	dir string

	// gzPool recycles gzip writers across Puts: each deflate state is
	// ~800 KB, which a fleet-wide Checkpoint would otherwise reallocate
	// once per device.
	gzPool sync.Pool

	mu      sync.Mutex
	present map[string]struct{}
}

// NewDiskStateStore opens (creating if needed) a directory-backed state
// store and indexes the device states already present from earlier
// processes.
func NewDiskStateStore(dir string) (*DiskStateStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating state dir %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("core: reading state dir %s: %w", dir, err)
	}
	s := &DiskStateStore{dir: dir, present: make(map[string]struct{})}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if !strings.HasSuffix(name, diskStateSuffix) {
			// A ".state-*" entry without the suffix is a temp file from a
			// Put that crashed before its rename: it holds no committed
			// state, so collect it instead of accumulating one per crash.
			// (The suffix check above runs first: a device named
			// ".state-x" escapes to ".state-x.state.gz" and is kept.)
			if strings.HasPrefix(name, ".state-") {
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					return nil, fmt.Errorf("core: sweeping orphaned temp file %s: %w", name, err)
				}
			}
			continue
		}
		device, err := url.PathUnescape(strings.TrimSuffix(name, diskStateSuffix))
		if err != nil {
			return nil, fmt.Errorf("core: state dir %s has unparseable entry %s: %w", dir, name, err)
		}
		s.present[device] = struct{}{}
	}
	return s, nil
}

// Dir returns the backing directory.
func (s *DiskStateStore) Dir() string { return s.dir }

func (s *DiskStateStore) path(device string) string {
	return filepath.Join(s.dir, url.PathEscape(device)+diskStateSuffix)
}

// Put writes the blob as a gzip file, atomically and crash-durably: the
// temp file is fsynced before the rename and the directory after it, so
// a power cut leaves either the old committed state or the new one —
// never a torn file under the device's name.
func (s *DiskStateStore) Put(device string, blob []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".state-*")
	if err != nil {
		return fmt.Errorf("core: spilling device %s: %w", device, err)
	}
	defer os.Remove(tmp.Name())
	gz, _ := s.gzPool.Get().(*gzip.Writer)
	if gz == nil {
		gz = gzip.NewWriter(tmp)
	} else {
		gz.Reset(tmp)
	}
	if _, err = gz.Write(blob); err == nil {
		err = gz.Close()
	} else {
		gz.Close()
	}
	s.gzPool.Put(gz)
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = tmp.Close()
	} else {
		tmp.Close()
	}
	if err != nil {
		return fmt.Errorf("core: spilling device %s: %w", device, err)
	}
	if err := os.Rename(tmp.Name(), s.path(device)); err != nil {
		return fmt.Errorf("core: spilling device %s: %w", device, err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("core: spilling device %s: %w", device, err)
	}
	s.mu.Lock()
	s.present[device] = struct{}{}
	s.mu.Unlock()
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Get reads and decompresses the device's blob. Devices absent from the
// presence index return ok=false without touching the filesystem.
func (s *DiskStateStore) Get(device string) ([]byte, bool, error) {
	s.mu.Lock()
	_, ok := s.present[device]
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	f, err := os.Open(s.path(device))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("core: reading state for device %s: %w", device, err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return nil, false, fmt.Errorf("core: state for device %s not gzip: %w", device, err)
	}
	defer gz.Close()
	blob, err := io.ReadAll(gz)
	if err != nil {
		return nil, false, fmt.Errorf("core: reading state for device %s: %w", device, err)
	}
	return blob, true, nil
}

// Delete removes the device's state file.
func (s *DiskStateStore) Delete(device string) error {
	if err := os.Remove(s.path(device)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("core: deleting state for device %s: %w", device, err)
	}
	s.mu.Lock()
	delete(s.present, device)
	s.mu.Unlock()
	return nil
}

// Devices lists devices with stored state, sorted.
func (s *DiskStateStore) Devices() ([]string, error) {
	s.mu.Lock()
	out := make([]string, 0, len(s.present))
	for d := range s.present {
		out = append(out, d)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out, nil
}

// Flush is a no-op: Put has already synced the blob to disk.
func (s *DiskStateStore) Flush() error { return nil }

// shardStateJSON is the serialized form of one exported monitor shard —
// the handoff unit for moving a shard's devices between processes.
type shardStateJSON struct {
	Version int           `json:"version"`
	Devices []DeviceState `json:"devices"`
}

// encodeShardState renders a shard export as gzip-compressed JSON.
func encodeShardState(devices []DeviceState) ([]byte, error) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if err := json.NewEncoder(gz).Encode(shardStateJSON{Version: stateVersion, Devices: devices}); err != nil {
		gz.Close()
		return nil, fmt.Errorf("core: encoding shard export: %w", err)
	}
	if err := gz.Close(); err != nil {
		return nil, fmt.Errorf("core: encoding shard export: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeShardState parses and version-checks a shard export.
func decodeShardState(data []byte) ([]DeviceState, error) {
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("core: shard export not gzip: %w", err)
	}
	defer gz.Close()
	var s shardStateJSON
	if err := json.NewDecoder(gz).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decoding shard export: %w", err)
	}
	if s.Version != stateVersion {
		return nil, fmt.Errorf("core: unsupported shard export version %d (want %d)", s.Version, stateVersion)
	}
	for i := range s.Devices {
		if s.Devices[i].Device == "" {
			return nil, fmt.Errorf("core: shard export entry %d missing device id", i)
		}
	}
	return s.Devices, nil
}
