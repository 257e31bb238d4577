package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"webtxprofile/internal/core"
	"webtxprofile/internal/weblog"
)

// The binary frame encoding, the only one the cluster speaks (see doc.go
// for the layout).

// wireVersion is the version byte every frame carries. A reader refuses
// any other value with ErrWireVersion.
const wireVersion = 2

// binaryMagic is the first payload byte of every frame.
const binaryMagic = 0xF7

// Binary frame type codes, fixed on the wire (the type strings are not
// sent). Codes 4, 10 and 11 are retired (they carried the staged
// handoff's import, commit and abort) and must never be reused: a frame
// carrying one fails to decode.
var frameTypeCodes = map[string]byte{
	FrameHello: 1, FrameFeed: 2, FrameExport: 3,
	FrameFlush: 5, FrameStats: 6, FrameOK: 7, FrameError: 8, FrameAlert: 9,
	FrameGossip: 12, FrameList: 13,
}

// frameTypeNames inverts frameTypeCodes (index = code).
var frameTypeNames = func() [14]string {
	var names [14]string
	for name, code := range frameTypeCodes {
		names[code] = name
	}
	return names
}()

// Binary frame field tags. Fields at their zero value are omitted; an
// unknown tag is a decode error, so protocol drift surfaces as a clean
// error on the reader rather than a silent no-op. Tags 3, 4, 6, 9 and 11
// are retired (they carried the negotiated wire version, log-line feeds,
// state blobs, JSON-encoded alerts and handoff ids) and must never be
// reused.
const (
	tagNode      = 1 // uvarint length + bytes
	tagSubscribe = 2 // no payload; presence means true
	tagDevices   = 5 // uvarint count, then per device: uvarint length + bytes
	tagCount     = 7 // zigzag varint
	tagError     = 8 // uvarint length + bytes
	tagTxs       = 10
	// tagTxs: uvarint count, then count weblog binary records back to back
	// (the records are self-delimiting).
	tagClient = 12 // uvarint length + bytes
	tagCursor = 13 // uvarint
	tagResume = 14 // no payload; presence means true
	tagReplay = 15 // no payload; presence means true
	tagGossip = 16 // uvarint length + JSON-encoded GossipState
	tagAlert  = 17 // uvarint length + binary NodeAlert (appendNodeAlert)
)

// AppendBinaryFrame appends f's binary encoding to dst. The layout is
//
//	magic byte, version byte (2), frame type code, uvarint seq,
//	tagged fields until the payload ends
func AppendBinaryFrame(dst []byte, f Frame) ([]byte, error) {
	code, ok := frameTypeCodes[f.Type]
	if !ok {
		return dst, fmt.Errorf("cluster: frame type %q has no binary encoding", f.Type)
	}
	dst = append(dst, binaryMagic, wireVersion, code)
	dst = binary.AppendUvarint(dst, f.Seq)
	if f.Node != "" {
		dst = appendTagString(dst, tagNode, f.Node)
	}
	if f.Subscribe {
		dst = append(dst, tagSubscribe)
	}
	if len(f.Devices) > 0 {
		dst = appendTagStrings(dst, tagDevices, f.Devices)
	}
	if f.Count != 0 {
		dst = append(dst, tagCount)
		dst = binary.AppendVarint(dst, int64(f.Count))
	}
	if f.Error != "" {
		dst = appendTagString(dst, tagError, f.Error)
	}
	if f.Alert != nil {
		payload, err := appendNodeAlert(nil, f.Alert)
		if err != nil {
			return dst, err
		}
		dst = append(dst, tagAlert)
		dst = binary.AppendUvarint(dst, uint64(len(payload)))
		dst = append(dst, payload...)
	}
	if len(f.Txs) > 0 {
		dst = append(dst, tagTxs)
		dst = binary.AppendUvarint(dst, uint64(len(f.Txs)))
		for i := range f.Txs {
			dst = f.Txs[i].AppendBinary(dst)
		}
	}
	if f.Client != "" {
		dst = appendTagString(dst, tagClient, f.Client)
	}
	if f.Cursor != 0 {
		dst = append(dst, tagCursor)
		dst = binary.AppendUvarint(dst, f.Cursor)
	}
	if f.Resume {
		dst = append(dst, tagResume)
	}
	if f.Replay {
		dst = append(dst, tagReplay)
	}
	if f.Gossip != nil {
		payload, err := json.Marshal(f.Gossip)
		if err != nil {
			return dst, fmt.Errorf("cluster: encoding gossip: %w", err)
		}
		dst = append(dst, tagGossip)
		dst = binary.AppendUvarint(dst, uint64(len(payload)))
		dst = append(dst, payload...)
	}
	return dst, nil
}

func appendTagString(dst []byte, tag byte, s string) []byte {
	return weblog.AppendBinaryString(append(dst, tag), s)
}

func appendTagStrings(dst []byte, tag byte, ss []string) []byte {
	dst = append(dst, tag)
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = weblog.AppendBinaryString(dst, s)
	}
	return dst
}

// decodeBinaryFrame decodes one frame payload. The payload is converted
// to a string once; every decoded string field (including the transactions'
// fields) aliases that one copy, so a feed frame decodes with no per-field
// allocation. Malformed input returns an error, never panics
// (FuzzBinaryFrame).
func decodeBinaryFrame(payload []byte) (Frame, error) {
	if len(payload) == 0 || payload[0] != binaryMagic {
		return Frame{}, fmt.Errorf("%w: payload does not start with the frame magic %#x", ErrWireVersion, binaryMagic)
	}
	if len(payload) > 1 && payload[1] != wireVersion {
		return Frame{}, fmt.Errorf("%w: frame version %d, this build speaks %d", ErrWireVersion, payload[1], wireVersion)
	}
	if len(payload) < 3 {
		return Frame{}, fmt.Errorf("cluster: truncated frame header")
	}
	code := payload[2]
	if int(code) >= len(frameTypeNames) || frameTypeNames[code] == "" {
		return Frame{}, fmt.Errorf("cluster: unknown binary frame type %d", code)
	}
	f := Frame{Type: frameTypeNames[code]}
	r := weblog.NewBinaryReader(string(payload[3:]))
	f.Seq = r.Uvarint()
	for r.Len() > 0 {
		switch tag := r.Byte(); tag {
		case tagNode:
			f.Node = r.Field()
		case tagSubscribe:
			f.Subscribe = true
		case tagDevices:
			f.Devices = r.Fields("devices")
		case tagCount:
			f.Count = r.Int()
		case tagError:
			f.Error = r.Field()
		case tagAlert:
			if b := r.Field(); r.Err() == nil {
				alert, err := decodeNodeAlert(b)
				if err != nil {
					r.Fail(err)
				}
				f.Alert = alert
			}
		case tagTxs:
			// A minimal record is 12 bytes (1-byte timestamp varint, nine
			// empty fields, reputation, flags).
			f.Txs = make([]weblog.Transaction, r.Count("transactions", 12))
			for i := range f.Txs {
				r.Transaction(&f.Txs[i])
			}
		case tagClient:
			f.Client = r.Field()
		case tagCursor:
			f.Cursor = r.Uvarint()
		case tagResume:
			f.Resume = true
		case tagReplay:
			f.Replay = true
		case tagGossip:
			if b := r.Field(); r.Err() == nil {
				var g GossipState
				if err := json.Unmarshal([]byte(b), &g); err != nil {
					r.Fail(err)
				}
				f.Gossip = &g
			}
		default:
			r.Fail(fmt.Errorf("unknown field tag %d", tag))
		}
	}
	if err := r.Err(); err != nil {
		return Frame{}, fmt.Errorf("cluster: decoding binary %s frame: %w", f.Type, err)
	}
	return f, nil
}

// appendNodeAlert appends na's binary encoding: node, seq, the alert's
// device, kind, user and previous user, then its event — window start and
// end, vector, count, entity, user counts sorted by user, accepted users
// and identified user. Strings are a uvarint length plus bytes, times
// are zigzag Unix seconds plus uvarint nanoseconds, vector values are
// little-endian IEEE doubles. Like the JSON it replaces, it refuses
// non-finite vector values.
func appendNodeAlert(dst []byte, na *NodeAlert) ([]byte, error) {
	a := &na.Alert
	w := &a.Event.Window
	if len(w.Vector.Idx) != len(w.Vector.Val) {
		return dst, fmt.Errorf("cluster: encoding alert: vector has %d indices and %d values", len(w.Vector.Idx), len(w.Vector.Val))
	}
	dst = weblog.AppendBinaryString(dst, na.Node)
	dst = binary.AppendUvarint(dst, na.Seq)
	dst = weblog.AppendBinaryString(dst, a.Device)
	dst = binary.AppendVarint(dst, int64(a.Kind))
	dst = weblog.AppendBinaryString(dst, a.User)
	dst = weblog.AppendBinaryString(dst, a.Previous)
	dst = appendWireTime(dst, w.Start)
	dst = appendWireTime(dst, w.End)
	dst = binary.AppendUvarint(dst, uint64(len(w.Vector.Idx)))
	for i, col := range w.Vector.Idx {
		v := w.Vector.Val[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return dst, fmt.Errorf("cluster: encoding alert: non-finite vector value %v", v)
		}
		dst = binary.AppendVarint(dst, int64(col))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	dst = binary.AppendVarint(dst, int64(w.Count))
	dst = weblog.AppendBinaryString(dst, w.Entity)
	users := make([]string, 0, len(w.UserCounts))
	for u := range w.UserCounts {
		users = append(users, u)
	}
	sort.Strings(users)
	dst = binary.AppendUvarint(dst, uint64(len(users)))
	for _, u := range users {
		dst = weblog.AppendBinaryString(dst, u)
		dst = binary.AppendVarint(dst, int64(w.UserCounts[u]))
	}
	dst = binary.AppendUvarint(dst, uint64(len(a.Event.Accepted)))
	for _, u := range a.Event.Accepted {
		dst = weblog.AppendBinaryString(dst, u)
	}
	return weblog.AppendBinaryString(dst, a.Event.Identified), nil
}

func appendWireTime(dst []byte, t time.Time) []byte {
	dst = binary.AppendVarint(dst, t.Unix())
	return binary.AppendUvarint(dst, uint64(t.Nanosecond()))
}

// decodeNodeAlert decodes appendNodeAlert's encoding, which must fill s
// exactly. Empty lists decode as nil and times in UTC.
func decodeNodeAlert(s string) (*NodeAlert, error) {
	r := weblog.NewBinaryReader(s)
	na := &NodeAlert{Node: r.Field(), Seq: r.Uvarint()}
	a := &na.Alert
	a.Device = r.Field()
	a.Kind = core.AlertKind(r.Int())
	a.User = r.Field()
	a.Previous = r.Field()
	w := &a.Event.Window
	w.Start = readWireTime(r)
	w.End = readWireTime(r)
	// An entry is at least a 1-byte column varint and an 8-byte value.
	if n := r.Count("vector entries", 9); n > 0 {
		w.Vector.Idx, w.Vector.Val = make([]int32, n), make([]float64, n)
		for i := range w.Vector.Idx {
			col, v := r.Varint(), r.Float64()
			if col != int64(int32(col)) || math.IsNaN(v) || math.IsInf(v, 0) {
				r.Fail(fmt.Errorf("vector entry %d out of range", i))
			}
			w.Vector.Idx[i], w.Vector.Val[i] = int32(col), v
		}
	}
	w.Count = r.Int()
	w.Entity = r.Field()
	// A user count is at least a 1-byte name length and a 1-byte count.
	if n := r.Count("user counts", 2); n > 0 {
		w.UserCounts = make(map[string]int, n)
		prev := ""
		for i := 0; i < n; i++ {
			u := r.Field()
			if i > 0 && u <= prev {
				r.Fail(fmt.Errorf("user counts not sorted by user at %q", u))
			}
			w.UserCounts[u] = r.Int()
			prev = u
		}
	}
	a.Event.Accepted = r.Fields("accepted users")
	a.Event.Identified = r.Field()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("alert: %w", err)
	}
	return na, nil
}

// readWireTime reads appendWireTime's encoding as a UTC time.
func readWireTime(r *weblog.BinaryReader) time.Time {
	sec, nsec := r.Varint(), r.Uvarint()
	if nsec >= 1e9 {
		r.Fail(fmt.Errorf("time has %d nanoseconds", nsec))
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}
