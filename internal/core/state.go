package core

import (
	"compress/gzip"
	"encoding/binary"
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

	"webtxprofile/internal/weblog"
)

// stateVersion is the identifier-state format: the first byte of every
// per-device blob a StateStore holds and of every shard blob ExportStaged
// produces. Bump it when the binary layout (or anything it encodes)
// changes incompatibly — decode rejects any other version, like
// persist.go's bundle loader.
const stateVersion = 2

// legacyStateVersion is the JSON device-blob format of earlier releases.
// Such blobs at rest (DiskStateStore files, a state server during a
// rolling upgrade) are still read, and the device's next spill rewrites
// them in the binary format; nothing writes JSON any more.
const legacyStateVersion = 1

// DeviceState is the portable identification state of one monitored
// device: the streaming identifier's snapshot plus the monitor-level
// identity tracking (the currently confirmed user and the stream-time
// last-seen stamp driving idle eviction). It is everything a Monitor needs
// to resume the device exactly where another Monitor — or a previous
// process — left off. EncodeDeviceState writes it in the binary format;
// the JSON tags serve only the legacy (version 1) reader.
type DeviceState struct {
	// Version is the legacy JSON format's version field. The binary
	// codec ignores it: a binary blob's version is its first byte.
	Version int    `json:"version"`
	Device  string `json:"device"`
	// Current is the confirmed user at snapshot time ("" if none).
	Current string `json:"current,omitempty"`
	// LastSeen is the device's stream-clock last-activity stamp; the
	// importing monitor clamps it into its own clock's sane range.
	LastSeen   time.Time       `json:"last_seen"`
	Identifier IdentifierState `json:"identifier"`
}

// Flag bits of a device blob's flags byte.
const (
	stateFlagAnchored = 1 << iota
	stateFlagClosed
	stateFlagLastSeen
	stateFlagsKnown = stateFlagAnchored | stateFlagClosed | stateFlagLastSeen
)

// EncodeDeviceState serializes one device blob (the disk store adds
// gzip). The layout, with strings as a uvarint length plus bytes and
// transactions as weblog binary records, is
//
//	byte     version (stateVersion)
//	string   device, current user
//	byte     flags: anchored, closed, last-seen present
//	varint   last-seen as UnixNano, zigzag (only if present)
//	string   identifier host; varint K
//	string   streamer entity; varint NextIdx, EmitCount
//	record   anchor, last-seen transaction (only if anchored)
//	uvarint  buffered count, then the records (only if anchored)
//	uvarint  runs count, then per run: string user, varint streak
//
// Runs are sorted by user, so equal states encode to equal bytes.
func EncodeDeviceState(st DeviceState) []byte {
	// Sized for typical records (~100 bytes), so most encodes allocate
	// the blob once.
	return appendDeviceState(make([]byte, 0, 256+128*len(st.Identifier.Streamer.Buffered)), &st)
}

func appendDeviceState(dst []byte, st *DeviceState) []byte {
	id, ss := &st.Identifier, &st.Identifier.Streamer
	var flags byte
	if ss.Anchored {
		flags |= stateFlagAnchored
	}
	if ss.Closed {
		flags |= stateFlagClosed
	}
	if !st.LastSeen.IsZero() {
		flags |= stateFlagLastSeen
	}
	dst = append(dst, stateVersion)
	dst = weblog.AppendBinaryString(dst, st.Device)
	dst = weblog.AppendBinaryString(dst, st.Current)
	dst = append(dst, flags)
	if flags&stateFlagLastSeen != 0 {
		dst = binary.AppendVarint(dst, st.LastSeen.UnixNano())
	}
	dst = weblog.AppendBinaryString(dst, id.Host)
	dst = binary.AppendVarint(dst, int64(id.K))
	dst = weblog.AppendBinaryString(dst, ss.Entity)
	dst = binary.AppendVarint(dst, int64(ss.NextIdx))
	dst = binary.AppendVarint(dst, int64(ss.EmitCount))
	if ss.Anchored {
		dst = ss.Anchor.AppendBinary(dst)
		dst = ss.LastSeen.AppendBinary(dst)
		dst = binary.AppendUvarint(dst, uint64(len(ss.Buffered)))
		for i := range ss.Buffered {
			dst = ss.Buffered[i].AppendBinary(dst)
		}
	}
	users := make([]string, 0, len(id.Runs))
	for u := range id.Runs {
		users = append(users, u)
	}
	sort.Strings(users)
	dst = binary.AppendUvarint(dst, uint64(len(users)))
	for _, u := range users {
		dst = weblog.AppendBinaryString(dst, u)
		dst = binary.AppendVarint(dst, int64(id.Runs[u]))
	}
	return dst
}

// DecodeDeviceState parses and version-checks one device blob: the
// binary format, or a legacy JSON blob (its first byte is '{').
func DecodeDeviceState(blob []byte) (DeviceState, error) {
	if len(blob) > 0 && blob[0] == '{' {
		return decodeLegacyDeviceState(blob)
	}
	// One copy that every decoded string aliases: a blob holds a single
	// device, so the copy pins no other device's memory.
	return decodeDeviceRecord(string(blob))
}

// decodeDeviceRecord decodes exactly one binary device state from s; the
// decoded strings alias s. It accepts only the canonical encoding, so a
// state it returns re-encodes to s.
func decodeDeviceRecord(s string) (DeviceState, error) {
	r := weblog.NewCanonicalBinaryReader(s)
	st := readDeviceState(r)
	if err := r.Done(); err != nil {
		return DeviceState{}, fmt.Errorf("core: decoding device state: %w", err)
	}
	return st, nil
}

// readDeviceState reads one binary device state (see EncodeDeviceState).
func readDeviceState(r *weblog.BinaryReader) DeviceState {
	if v := r.Byte(); r.Err() == nil && v != stateVersion {
		r.Fail(fmt.Errorf("unsupported device state version %d (want %d)", v, stateVersion))
	}
	st := DeviceState{Device: r.Field(), Current: r.Field()}
	if r.Err() == nil && st.Device == "" {
		r.Fail(fmt.Errorf("missing device id"))
	}
	flags := r.Byte()
	if flags&^stateFlagsKnown != 0 {
		r.Fail(fmt.Errorf("unknown flag bits %#x", flags))
	}
	if flags&stateFlagLastSeen != 0 {
		st.LastSeen = time.Unix(0, r.Varint()).UTC()
	}
	id := &st.Identifier
	id.Host = r.Field()
	id.K = r.Int()
	ss := &id.Streamer
	ss.Entity = r.Field()
	ss.NextIdx = r.Int()
	ss.EmitCount = r.Int()
	ss.Closed = flags&stateFlagClosed != 0
	if flags&stateFlagAnchored != 0 {
		ss.Anchored = true
		pair := new([2]weblog.Transaction)
		r.Transaction(&pair[0])
		r.Transaction(&pair[1])
		ss.Anchor, ss.LastSeen = &pair[0], &pair[1]
		if n := r.Count("buffered transactions", weblog.MinBinaryRecord); n > 0 {
			ss.Buffered = make([]weblog.Transaction, n)
			for i := range ss.Buffered {
				r.Transaction(&ss.Buffered[i])
			}
		}
	}
	// A run is at least a 1-byte user length and a 1-byte streak.
	if n := r.Count("runs", 2); n > 0 {
		id.Runs = make(map[string]int, n)
		prev := ""
		for i := 0; i < n; i++ {
			u := r.Field()
			if i > 0 && u <= prev {
				r.Fail(fmt.Errorf("runs not sorted by user at %q", u))
			}
			id.Runs[u] = r.Int()
			prev = u
		}
	}
	return st
}

// decodeLegacyDeviceState reads a version-1 JSON device blob. It rejects
// the anchor shapes the binary format cannot carry — RestoreStreamer
// would refuse them anyway — so the state re-encodes faithfully (an
// export of a spilled device re-encodes it without restoring it first).
func decodeLegacyDeviceState(blob []byte) (DeviceState, error) {
	var st DeviceState
	if err := json.Unmarshal(blob, &st); err != nil {
		return DeviceState{}, fmt.Errorf("core: decoding device state: %w", err)
	}
	if st.Version != legacyStateVersion {
		return DeviceState{}, fmt.Errorf("core: unsupported JSON device state version %d (want %d)", st.Version, legacyStateVersion)
	}
	if st.Device == "" {
		return DeviceState{}, fmt.Errorf("core: device state missing device id")
	}
	ss := &st.Identifier.Streamer
	if ss.Anchored != (ss.Anchor != nil) || ss.Anchored != (ss.LastSeen != nil) || (!ss.Anchored && len(ss.Buffered) > 0) {
		return DeviceState{}, fmt.Errorf("core: device state for %s has inconsistent streamer anchor", st.Device)
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

// encodeShardState renders a shard export — the handoff unit for moving
// devices between processes: the version byte, a uvarint device count,
// then each device's binary state as a uvarint length plus bytes. It only
// crosses the cluster wire between peers of one build, so unlike the
// per-device blob it has no legacy reader.
func encodeShardState(devices []DeviceState) []byte {
	dst := append([]byte(nil), stateVersion)
	dst = binary.AppendUvarint(dst, uint64(len(devices)))
	var rec []byte
	for i := range devices {
		rec = appendDeviceState(rec[:0], &devices[i])
		dst = binary.AppendUvarint(dst, uint64(len(rec)))
		dst = append(dst, rec...)
	}
	return dst
}

// decodeShardState parses and version-checks a shard export. Each device
// decodes from its own copy of its record, so no device's state pins the
// others'.
func decodeShardState(data []byte) ([]DeviceState, error) {
	r := weblog.NewCanonicalBinaryReader(string(data))
	if v := r.Byte(); r.Err() == nil && v != stateVersion {
		return nil, fmt.Errorf("core: unsupported shard export version %d (want %d)", v, stateVersion)
	}
	// Each entry is at least its 1-byte length prefix.
	n := r.Count("devices", 1)
	var states []DeviceState
	for i := 0; i < n; i++ {
		rec := r.Field()
		if r.Err() != nil {
			break
		}
		st, err := decodeDeviceRecord(strings.Clone(rec))
		if err != nil {
			return nil, fmt.Errorf("core: shard export entry %d: %w", i, err)
		}
		states = append(states, st)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("core: decoding shard export: %w", err)
	}
	return states, nil
}
