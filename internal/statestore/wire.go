package statestore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Wire format, in the style of the cluster's binary wire v2: every frame
// is a 4-byte big-endian length followed by that many payload bytes, and
// the payload is
//
//	magic (0xF6) | version (1) | op | uvarint seq | op-specific body
//
// with strings and blobs as uvarint-length-prefixed bytes. The magic
// differs from the cluster protocol's (0xF7) so a misdirected connection
// fails loudly at the first frame, and the frame bound stays at or below
// the cluster's MaxFrameBytes so clustertest.ChaosProxy — which enforces
// only the length bound and forwards undecodable frames verbatim — can
// sit in front of a state server in the chaos suites.
const (
	wireMagic     = 0xF6
	wireVersion   = 1
	maxFrameBytes = 64 << 20
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

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errMalformed
	}
	return v, b[n:], nil
}

// readBytes returns a sub-slice aliasing b: callers that retain the
// result past the read buffer's reuse must copy it.
func readBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := readUvarint(b)
	if err != nil || n > uint64(len(rest)) {
		return nil, nil, errMalformed
	}
	return rest[:n], rest[n:], nil
}

func readString(b []byte) (string, []byte, error) {
	raw, rest, err := readBytes(b)
	return string(raw), rest, err
}

// appendMessage encodes m onto dst (which may be a reused scratch
// buffer) and returns the extended slice.
func appendMessage(dst []byte, m message) ([]byte, error) {
	dst = append(dst, wireMagic, wireVersion, m.op)
	dst = binary.AppendUvarint(dst, m.seq)
	switch m.op {
	case opPut:
		dst = binary.AppendUvarint(dst, uint64(len(m.puts)))
		for _, p := range m.puts {
			dst = appendString(dst, p.device)
			dst = binary.AppendUvarint(dst, p.ver)
			dst = appendBytes(dst, p.blob)
		}
	case opGet, opDelete:
		dst = appendString(dst, m.device)
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
		dst = appendBytes(dst, m.blob)
	case opDeleteOK:
		dst = binary.AppendUvarint(dst, m.ver)
	case opListOK:
		dst = binary.AppendUvarint(dst, uint64(len(m.devices)))
		for _, d := range m.devices {
			dst = appendString(dst, d)
		}
	case opErr:
		dst = appendString(dst, m.errMsg)
	default:
		return nil, fmt.Errorf("statestore: encoding unknown op 0x%02x", m.op)
	}
	return dst, nil
}

// decodeMessage parses a frame payload. Strings and blobs alias the
// payload; the whole payload must be consumed (trailing bytes are an
// error, like the cluster codec). Errors, never panics, on adversarial
// input: every length is checked against the remaining bytes.
func decodeMessage(payload []byte) (message, error) {
	if len(payload) < 3 || payload[0] != wireMagic || payload[1] != wireVersion {
		return message{}, errMalformed
	}
	m := message{op: payload[2]}
	rest := payload[3:]
	var err error
	if m.seq, rest, err = readUvarint(rest); err != nil {
		return message{}, err
	}
	switch m.op {
	case opPut:
		var n uint64
		if n, rest, err = readUvarint(rest); err != nil {
			return message{}, err
		}
		if n > uint64(len(rest)) { // each entry takes >= 1 byte
			return message{}, errMalformed
		}
		m.puts = make([]putEntry, 0, n)
		for i := uint64(0); i < n; i++ {
			var p putEntry
			if p.device, rest, err = readString(rest); err != nil {
				return message{}, err
			}
			if p.ver, rest, err = readUvarint(rest); err != nil {
				return message{}, err
			}
			if p.blob, rest, err = readBytes(rest); err != nil {
				return message{}, err
			}
			m.puts = append(m.puts, p)
		}
	case opGet, opDelete:
		if m.device, rest, err = readString(rest); err != nil {
			return message{}, err
		}
	case opList:
	case opPutOK:
		var n uint64
		if n, rest, err = readUvarint(rest); err != nil {
			return message{}, err
		}
		if n > uint64(len(rest)) {
			return message{}, errMalformed
		}
		m.vers = make([]uint64, 0, n)
		for i := uint64(0); i < n; i++ {
			var v uint64
			if v, rest, err = readUvarint(rest); err != nil {
				return message{}, err
			}
			m.vers = append(m.vers, v)
		}
	case opGetOK:
		if len(rest) < 1 {
			return message{}, errMalformed
		}
		m.found = rest[0] != 0
		rest = rest[1:]
		if m.ver, rest, err = readUvarint(rest); err != nil {
			return message{}, err
		}
		if m.blob, rest, err = readBytes(rest); err != nil {
			return message{}, err
		}
	case opDeleteOK:
		if m.ver, rest, err = readUvarint(rest); err != nil {
			return message{}, err
		}
	case opListOK:
		var n uint64
		if n, rest, err = readUvarint(rest); err != nil {
			return message{}, err
		}
		if n > uint64(len(rest)) {
			return message{}, errMalformed
		}
		m.devices = make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			var d string
			if d, rest, err = readString(rest); err != nil {
				return message{}, err
			}
			m.devices = append(m.devices, d)
		}
	case opErr:
		if m.errMsg, rest, err = readString(rest); err != nil {
			return message{}, err
		}
	default:
		return message{}, fmt.Errorf("statestore: unknown op 0x%02x", m.op)
	}
	if len(rest) != 0 {
		return message{}, errMalformed
	}
	return m, nil
}

// writeFrame writes one length-prefixed frame and flushes.
func writeFrame(bw *bufio.Writer, payload []byte) error {
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("statestore: frame of %d bytes exceeds the %d-byte bound", len(payload), maxFrameBytes)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.Write(payload); err != nil {
		return err
	}
	return bw.Flush()
}

// readFrame reads one frame payload, reusing buf when it fits. The
// returned slice is only valid until the next call with the same buf.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrameBytes {
		return nil, fmt.Errorf("statestore: frame of %d bytes exceeds the %d-byte bound", n, maxFrameBytes)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Envelope for blobs persisted through a backing core.StateStore: a
// version byte, the device's uvarint version, then the raw blob — so the
// monotonic fence survives a server restart over the same directory. A
// backing blob without the envelope (a plain -state-dir promoted to the
// shared tier) is adopted as version 1: device state never starts with
// byte 0x01 (a binary blob starts with its format version, 2; a legacy
// JSON one with '{'), so the two are unambiguous.
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
