package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"webtxprofile/internal/features"
	"webtxprofile/internal/weblog"
)

// stateVersion is the identifier-state format: the first byte of every
// per-device blob a StateStore holds. Bump it when the binary layout (or anything it encodes)
// changes incompatibly — decode rejects any version it does not know,
// like persist.go's bundle loader.
const stateVersion = 3

// DeviceState is the portable identification state of one monitored
// device: the streaming identifier's snapshot plus the monitor-level
// identity tracking (the currently confirmed user and the stream-time
// last-seen stamp driving idle eviction). It is everything a Monitor needs
// to resume the device exactly where another Monitor — or a previous
// process — left off. EncodeDeviceState writes it in the binary format.
type DeviceState struct {
	Device string
	// Current is the confirmed user at snapshot time ("" if none).
	Current string
	// LastSeen is the device's stream-clock last-activity stamp; the
	// importing monitor clamps it into its own clock's sane range.
	LastSeen   time.Time
	Identifier IdentifierState
}

// Flag bits of a device blob's flags byte.
const (
	stateFlagAnchored = 1 << iota
	stateFlagClosed
	stateFlagLastSeen
	stateFlagsKnown = stateFlagAnchored | stateFlagClosed | stateFlagLastSeen
)

// groupMaskKnown covers a record's group-mask bits: one per Table I group.
const groupMaskKnown = 1<<len(features.Record{}.Cols) - 1

// EncodeDeviceState serializes one device blob. The layout, with strings
// as a uvarint length plus bytes and stamps as zigzag varint UnixNano, is
//
//	byte     version (stateVersion)
//	string   device, current user
//	byte     flags: anchored, closed, last-seen present
//	varint   last-seen stamp (only if present)
//	string   identifier host; varint K
//	string   streamer entity; varint NextIdx, EmitCount
//	varint   anchor stamp, streamer last-seen stamp     ┐
//	uvarint  vocabulary size; 8-byte LE vocabulary hash │ only if
//	uvarint  user count, then the user strings          │ anchored
//	uvarint  record count, then the records             ┘
//	uvarint  runs count, then per run: string user, varint streak
//
// and one buffered record is
//
//	uvarint  offset minus the previous record's (the first's: its offset)
//	uvarint  user index
//	uvarint  group mask: bit g set when the record hits a column of group g
//	uvarint  each such column, in group order
//	8 bytes  risk, a little-endian float64 (only with the risk group)
//
// The vocabulary fingerprint (features.Fingerprint) binds the records'
// column ids to the vocabulary they were extracted under: a blob decoded
// under another vocabulary is rejected. Runs are sorted by user, so equal
// states encode to equal bytes.
func EncodeDeviceState(st DeviceState) []byte {
	// Sized for typical records (~10 bytes), so most encodes allocate the
	// blob once.
	return appendDeviceState(make([]byte, 0, 256+16*len(st.Identifier.Streamer.Records)), &st)
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
		dst = binary.AppendVarint(dst, ss.Anchor.UnixNano())
		dst = binary.AppendVarint(dst, ss.LastSeen.UnixNano())
		dst = binary.AppendUvarint(dst, uint64(ss.Vocabulary.Size))
		dst = binary.LittleEndian.AppendUint64(dst, ss.Vocabulary.Hash)
		dst = binary.AppendUvarint(dst, uint64(len(ss.Users)))
		for _, u := range ss.Users {
			dst = weblog.AppendBinaryString(dst, u)
		}
		dst = binary.AppendUvarint(dst, uint64(len(ss.Records)))
		prev := time.Duration(0)
		for i := range ss.Records {
			dst = appendRecord(dst, &ss.Records[i], prev)
			prev = ss.Records[i].Offset
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

// appendRecord appends one buffered record, its offset relative to prev.
func appendRecord(dst []byte, r *features.Record, prev time.Duration) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.Offset-prev))
	dst = binary.AppendUvarint(dst, uint64(r.User))
	var mask uint64
	for g, c := range r.Cols {
		if c >= 0 {
			mask |= 1 << g
		}
	}
	dst = binary.AppendUvarint(dst, mask)
	for _, c := range r.Cols {
		if c >= 0 {
			dst = binary.AppendUvarint(dst, uint64(c))
		}
	}
	if r.Cols[features.GroupReputationRisk] >= 0 {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Risk))
	}
	return dst
}

// DecodeDeviceState parses and version-checks one device blob against the
// vocabulary of the monitor that will restore it: its records must have
// been extracted under vocab (same fingerprint).
func DecodeDeviceState(blob []byte, vocab *features.Vocabulary) (DeviceState, error) {
	// One copy that every decoded string aliases: a blob holds a single
	// device, so the copy pins no other device's memory.
	return decodeDeviceRecord(string(blob), vocab)
}

// decodeDeviceRecord decodes exactly one binary device state from s; the
// decoded strings alias s. It accepts only the canonical encoding, so a
// state it returns re-encodes to s.
func decodeDeviceRecord(s string, vocab *features.Vocabulary) (DeviceState, error) {
	r := weblog.NewCanonicalBinaryReader(s)
	st := readDeviceState(r)
	if err := r.Done(); err != nil {
		return DeviceState{}, fmt.Errorf("core: decoding device state: %w", err)
	}
	if ss := &st.Identifier.Streamer; ss.Anchored && ss.Vocabulary != vocab.Fingerprint() {
		return DeviceState{}, fmt.Errorf("core: device state for %s was taken under another vocabulary (%d columns, hash %#x; want %d, %#x)",
			st.Device, ss.Vocabulary.Size, ss.Vocabulary.Hash, vocab.Size(), vocab.Fingerprint().Hash)
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
		ss.Anchor = time.Unix(0, r.Varint()).UTC()
		ss.LastSeen = time.Unix(0, r.Varint()).UTC()
		ss.Vocabulary.Size = int(r.Uvarint())
		ss.Vocabulary.Hash = r.Uint64()
		ss.Users = r.Fields("users")
		// A record is at least its offset, user and mask bytes.
		if n := r.Count("buffered records", 3); n > 0 {
			ss.Records = make([]features.Record, n)
			prev := time.Duration(0)
			for i := range ss.Records {
				readRecord(r, &ss.Records[i], prev)
				prev = ss.Records[i].Offset
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

// readRecord reads one buffered record (see appendRecord) whose
// predecessor lies at offset prev.
func readRecord(r *weblog.BinaryReader, rec *features.Record, prev time.Duration) {
	delta := r.Uvarint()
	if delta > uint64(math.MaxInt64-prev) {
		r.Fail(fmt.Errorf("record offset overflows"))
		return
	}
	rec.Offset = prev + time.Duration(delta)
	user := r.Uvarint()
	if user > math.MaxUint32 {
		r.Fail(fmt.Errorf("record user index %d out of range", user))
		return
	}
	rec.User = uint32(user)
	mask := r.Uvarint()
	if mask&^groupMaskKnown != 0 {
		r.Fail(fmt.Errorf("unknown group bits %#x", mask))
		return
	}
	for g := range rec.Cols {
		rec.Cols[g] = -1
		if mask&(1<<g) == 0 {
			continue
		}
		c := r.Uvarint()
		if c > math.MaxInt32 {
			r.Fail(fmt.Errorf("record column %d out of range", c))
			return
		}
		rec.Cols[g] = int32(c)
	}
	if rec.Cols[features.GroupReputationRisk] >= 0 {
		rec.Risk = r.Float64()
	}
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
// writes: <url.PathEscape(device)>.state in the store directory.
const diskStateSuffix = ".state"

// DiskStateStore is a StateStore keeping one file per device in a
// directory, holding exactly the bytes Put was given, so spilled
// identification state survives process restarts — the profilerd
// -state-dir backing. Writes are atomic (temp file + rename, like
// ProfileSet.SaveFile) and an in-memory presence index built at open time
// makes the Get miss — every first-seen device of a monitor with spilling
// enabled — a map lookup instead of a stat.
//
// Safe for concurrent use within one process; the directory must not be
// shared by multiple live processes.
type DiskStateStore struct {
	dir string
	// dropped counts the earlier builds' ".state.gz" files removed at
	// open.
	dropped int

	mu      sync.Mutex
	present map[string]struct{}
}

// NewDiskStateStore opens (creating if needed) a directory-backed state
// store and indexes the device states already present from earlier
// processes. It removes the temp files of crashed Puts and the
// ".state.gz" files of earlier builds; DroppedLegacy counts the latter.
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
			// ".state-x" escapes to ".state-x.state" and is kept.) A
			// ".state.gz" file holds gzipped state of an earlier build, in
			// a format no monitor reads any more.
			legacy := strings.HasSuffix(name, ".state.gz")
			if strings.HasPrefix(name, ".state-") || legacy {
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					return nil, fmt.Errorf("core: sweeping %s: %w", name, err)
				}
				if legacy {
					s.dropped++
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

// DroppedLegacy returns the number of ".state.gz" files of earlier builds
// removed at open: devices whose state was lost to the format change,
// which restart fresh.
func (s *DiskStateStore) DroppedLegacy() int { return s.dropped }

func (s *DiskStateStore) path(device string) string {
	return filepath.Join(s.dir, url.PathEscape(device)+diskStateSuffix)
}

// Put writes the blob to the device's file, atomically and
// crash-durably: the temp file is fsynced before the rename and the
// directory after it, so a power cut leaves either the old committed
// state or the new one — never a torn file under the device's name.
func (s *DiskStateStore) Put(device string, blob []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".state-*")
	if err != nil {
		return fmt.Errorf("core: spilling device %s: %w", device, err)
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(blob)
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

// Get reads the device's blob. Devices absent from the presence index
// return ok=false without touching the filesystem.
func (s *DiskStateStore) Get(device string) ([]byte, bool, error) {
	s.mu.Lock()
	_, ok := s.present[device]
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	blob, err := os.ReadFile(s.path(device))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
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
