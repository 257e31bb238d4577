package statestore

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"webtxprofile/internal/weblog"
)

// Wire format. Frames go through weblog's length-prefix framer, the one
// the cluster wire uses too: a 4-byte big-endian length, then that many
// payload bytes, with one bound (weblog.MaxFrameBytes, which is the
// cluster's MaxFrameBytes) on both. So clustertest.ChaosProxy, which
// enforces only that bound and forwards undecodable frames verbatim, can
// sit in front of a state server in the chaos suites. The payload is
//
//	magic (0xF6) | version (1) | op | uvarint seq | op-specific body
//
// with counts, sequence numbers and versions as uvarints, and strings and
// blobs as uvarint-length-prefixed bytes, all read through
// weblog.BinaryReader. The magic differs from the cluster protocol's
// (0xF7), so a misdirected connection fails loudly at the first frame.
const (
	wireMagic   = 0xF6
	wireVersion = 1
)

// Operation codes. Requests and replies share the message struct; every
// reply echoes the request's seq.
const (
	opPut      = 0x01 // puts                → opPutOK vers (per entry, version now in force)
	opGet      = 0x02 // device              → opGetOK found, ver, blob
	opDelete   = 0x03 // device              → opDeleteOK ver (the tombstone's)
	opList     = 0x04 // —                   → opListOK devices
	opPutOK    = 0x81
	opGetOK    = 0x82
	opDeleteOK = 0x83
	opListOK   = 0x84
	opErr      = 0xFF // errMsg (in-band server error; not a transport failure)
)

// putEntry is one device's versioned blob inside a batched opPut.
type putEntry struct {
	device string
	ver    uint64
	blob   []byte
}

// message is the decoded form of any frame; which fields are meaningful
// depends on op.
type message struct {
	op  byte
	seq uint64

	device  string     // opGet, opDelete
	puts    []putEntry // opPut
	vers    []uint64   // opPutOK
	found   bool       // opGetOK
	ver     uint64     // opGetOK, opDeleteOK
	blob    []byte     // opGetOK
	devices []string   // opListOK
	errMsg  string     // opErr
}

var errMalformed = fmt.Errorf("statestore: malformed frame")

// appendMessage encodes m onto dst (which may be a reused scratch
// buffer) and returns the extended slice.
func appendMessage(dst []byte, m message) ([]byte, error) {
	dst = append(dst, wireMagic, wireVersion, m.op)
	dst = binary.AppendUvarint(dst, m.seq)
	switch m.op {
	case opPut:
		dst = binary.AppendUvarint(dst, uint64(len(m.puts)))
		for _, p := range m.puts {
			dst = weblog.AppendBinaryString(dst, p.device)
			dst = binary.AppendUvarint(dst, p.ver)
			dst = weblog.AppendBinaryString(dst, p.blob)
		}
	case opGet, opDelete:
		dst = weblog.AppendBinaryString(dst, m.device)
	case opList:
	case opPutOK:
		dst = binary.AppendUvarint(dst, uint64(len(m.vers)))
		for _, v := range m.vers {
			dst = binary.AppendUvarint(dst, v)
		}
	case opGetOK:
		if m.found {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.AppendUvarint(dst, m.ver)
		dst = weblog.AppendBinaryString(dst, m.blob)
	case opDeleteOK:
		dst = binary.AppendUvarint(dst, m.ver)
	case opListOK:
		dst = binary.AppendUvarint(dst, uint64(len(m.devices)))
		for _, d := range m.devices {
			dst = weblog.AppendBinaryString(dst, d)
		}
	case opErr:
		dst = weblog.AppendBinaryString(dst, m.errMsg)
	default:
		return nil, fmt.Errorf("statestore: encoding unknown op 0x%02x", m.op)
	}
	return dst, nil
}

// decodeMessage parses a frame payload in place: the decoded strings and
// blobs alias payload, which is not copied. A caller that reads the next
// frame into the same buffer must copy whatever it keeps past that (the
// server clones device names and copies blobs); the client reads each
// reply into a fresh buffer. The whole payload must be consumed
// (trailing bytes are an error, like the cluster codec). Errors, never
// panics, on adversarial input (FuzzStateMessage): every length and
// count is checked against the remaining bytes, a count at its
// elements' smallest encoding.
func decodeMessage(payload []byte) (message, error) {
	if len(payload) < 3 || payload[0] != wireMagic || payload[1] != wireVersion {
		return message{}, errMalformed
	}
	m := message{op: payload[2]}
	body := payload[3:]
	// The reader reads body itself, not a string copy of it; nothing
	// writes to body while the reader or its strings are in use.
	r := weblog.NewBinaryReader(unsafe.String(unsafe.SliceData(body), len(body)))
	m.seq = r.Uvarint()
	switch m.op {
	case opPut:
		// An entry is at least a 1-byte device length, version and blob
		// length.
		m.puts = make([]putEntry, r.Count("put entries", 3))
		for i := range m.puts {
			p := &m.puts[i]
			p.device, p.ver, p.blob = r.Field(), r.Uvarint(), readBlob(r, body)
		}
	case opGet, opDelete:
		m.device = r.Field()
	case opList:
	case opPutOK:
		m.vers = make([]uint64, r.Count("versions", 1))
		for i := range m.vers {
			m.vers[i] = r.Uvarint()
		}
	case opGetOK:
		m.found = r.Byte() != 0
		m.ver = r.Uvarint()
		m.blob = readBlob(r, body)
	case opDeleteOK:
		m.ver = r.Uvarint()
	case opListOK:
		m.devices = r.Fields("devices")
	case opErr:
		m.errMsg = r.Field()
	default:
		return message{}, fmt.Errorf("statestore: unknown op 0x%02x", m.op)
	}
	if err := r.Done(); err != nil {
		return message{}, fmt.Errorf("%w: %v", errMalformed, err)
	}
	return m, nil
}

// readBlob reads one length-prefixed blob as a slice of body, the bytes
// r reads.
func readBlob(r *weblog.BinaryReader, body []byte) []byte {
	b := r.Field()
	end := len(body) - r.Len()
	return body[end-len(b) : end : end]
}

// Envelope for blobs persisted through a backing core.StateStore: a
// version byte, the device's uvarint version, then the raw blob — so the
// monotonic fence survives a server restart over the same directory.
// Device state never starts with byte 0x01 (its first byte is its format
// version, 3), so a backing blob without the envelope is told apart; the
// server deletes such a blob at start instead of loading it.
const envelopeVersion = 0x01

func appendEnvelope(dst []byte, ver uint64, blob []byte) []byte {
	dst = append(dst, envelopeVersion)
	dst = binary.AppendUvarint(dst, ver)
	return append(dst, blob...)
}

func decodeEnvelope(b []byte) (ver uint64, blob []byte, ok bool) {
	if len(b) == 0 || b[0] != envelopeVersion {
		return 0, nil, false
	}
	v, n := binary.Uvarint(b[1:])
	if n <= 0 {
		return 0, nil, false
	}
	return v, b[1+n:], true
}
