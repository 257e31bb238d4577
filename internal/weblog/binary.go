package weblog

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"time"

	"webtxprofile/internal/taxonomy"
)

// The binary primitives the system's binary codecs are built from:
// varints, uvarint-length-prefixed strings, counted lists, the binary
// transaction record, and a length-prefix framer. Encoders append with
// the encoding/binary Append functions and AppendBinaryString. Every
// decoder reads through BinaryReader:
//   - binary records: DecodeBinary (the collector's binary ingest) and
//     BinaryReader.Transaction (the cluster's feed frames);
//   - cluster frames and the alerts inside them (cluster.ReadFrame);
//   - the state tier's messages (statestore);
//   - device-state blobs (core.DecodeDeviceState), through the canonical
//     reader.
//
// Both TCP protocols, the cluster wire and the state tier's, frame their
// payloads with AppendFrameHeader, FinishFrame and ReadFrame, and so does
// clustertest.ChaosProxy; the collector's binary stream keeps its own
// uvarint prefix per record.

// Binary transaction record — the payload unit shared by the collector's
// binary ingest mode and the cluster's feed frames. One record is:
//
//	varint   timestamp (UnixNano, zigzag-encoded)
//	9 ×      uvarint length + raw bytes: host, scheme, action, user,
//	         source-ip, category, media super-type, media sub-type,
//	         application type
//	byte     reputation
//	byte     flags (bit 0: private destination)
//
// Unlike the log-line format the record is 8-bit clean (fields may contain
// the line delimiter) and keeps full nanosecond timestamps; every line the
// line format can carry round-trips losslessly. The record is
// self-delimiting, so feed frames concatenate records with only a count,
// while the collector's stream mode adds a uvarint length prefix per
// record for framing.

// MaxBinaryRecord caps one encoded record, mirroring the collector's 1 MiB
// line cap; a corrupt length prefix cannot balloon memory.
const MaxBinaryRecord = 1 << 20

// binaryFlagPrivate is the Private field's bit in the record's flags byte.
const binaryFlagPrivate = 0x01

// AppendBinary appends t encoded as one binary record to dst and returns
// the extended slice. Encode validated transactions only: the format
// assumes a timestamp inside the int64 UnixNano range.
func (t *Transaction) AppendBinary(dst []byte) []byte {
	ts := t.Timestamp.UnixNano()
	dst = binary.AppendVarint(dst, ts)
	dst = AppendBinaryString(dst, t.Host)
	dst = AppendBinaryString(dst, t.Scheme)
	dst = AppendBinaryString(dst, t.Action)
	dst = AppendBinaryString(dst, t.UserID)
	dst = AppendBinaryString(dst, t.SourceIP)
	dst = AppendBinaryString(dst, t.Category)
	dst = AppendBinaryString(dst, t.MediaType.Super)
	dst = AppendBinaryString(dst, t.MediaType.Sub)
	dst = AppendBinaryString(dst, t.AppType)
	dst = append(dst, byte(t.Reputation))
	var flags byte
	if t.Private {
		flags |= binaryFlagPrivate
	}
	return append(dst, flags)
}

// AppendBinaryString appends s, a string or a byte slice, as a uvarint
// length plus its bytes: the string encoding of binary records, read back
// by BinaryReader.Field.
func AppendBinaryString[S ~string | ~[]byte](dst []byte, s S) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeBinary decodes exactly one binary record. The record's string
// fields are carved out of a single fresh copy of rec, so the call costs
// one allocation regardless of field count.
func DecodeBinary(rec []byte) (Transaction, error) {
	var tx Transaction
	r := NewBinaryReader(string(rec))
	r.Transaction(&tx)
	if err := r.Done(); err != nil {
		return Transaction{}, fmt.Errorf("weblog: binary record: %w", err)
	}
	return tx, nil
}

// BinaryReader walks a payload built from this file's primitives —
// varints, length-prefixed strings, binary records — as the cluster
// frames, the state tier's messages and device state lay them out. The
// first error sticks: every later read returns a zero value, so a decoder
// checks Err once at the end. Decoded strings alias the payload.
type BinaryReader struct {
	s         string
	err       error
	canonical bool
}

// NewBinaryReader returns a reader over s.
func NewBinaryReader(s string) *BinaryReader { return &BinaryReader{s: s} }

// NewCanonicalBinaryReader returns a reader over s that also rejects any
// encoding the Append functions would not have written (a varint padded
// with continuation bytes), so every value it reads re-encodes to the
// bytes it was read from.
func NewCanonicalBinaryReader(s string) *BinaryReader {
	return &BinaryReader{s: s, canonical: true}
}

// Err returns the first error, if any.
func (r *BinaryReader) Err() error { return r.err }

// Done returns the first error, or an error if bytes remain unread.
func (r *BinaryReader) Done() error {
	if r.err == nil && r.s != "" {
		r.err = fmt.Errorf("%d trailing bytes", len(r.s))
	}
	return r.err
}

// Fail records err (unless an earlier error stuck) and stops the reader.
func (r *BinaryReader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.s = ""
}

// Len returns the number of unread bytes.
func (r *BinaryReader) Len() int { return len(r.s) }

// uvarintLen is the length of x's minimal uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Byte reads one byte.
func (r *BinaryReader) Byte() byte {
	if r.s == "" {
		r.Fail(fmt.Errorf("truncated"))
		return 0
	}
	b := r.s[0]
	r.s = r.s[1:]
	return b
}

// Uvarint reads one uvarint. It accepts what binary.Uvarint accepts;
// the canonical reader refuses a padded encoding too.
func (r *BinaryReader) Uvarint() uint64 {
	var x uint64
	var shift uint
	for i := 0; i < len(r.s) && i < binary.MaxVarintLen64; i++ {
		b := r.s[i]
		if b >= 0x80 {
			x |= uint64(b&0x7f) << shift
			shift += 7
			continue
		}
		if i == binary.MaxVarintLen64-1 && b > 1 {
			break
		}
		x |= uint64(b) << shift
		if r.canonical && i+1 != uvarintLen(x) {
			r.Fail(fmt.Errorf("non-canonical encoding"))
			return 0
		}
		r.s = r.s[i+1:]
		return x
	}
	if len(r.s) < binary.MaxVarintLen64 {
		r.Fail(fmt.Errorf("truncated uvarint"))
	} else {
		r.Fail(fmt.Errorf("uvarint overflows 64 bits"))
	}
	return 0
}

// Varint reads one zigzag varint.
func (r *BinaryReader) Varint() int64 {
	ux := r.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// Int reads one zigzag varint as an int.
func (r *BinaryReader) Int() int { return int(r.Varint()) }

// Field reads one uvarint-length-prefixed string.
func (r *BinaryReader) Field() string {
	n := r.Uvarint()
	if n > uint64(len(r.s)) {
		r.Fail(fmt.Errorf("field of %d bytes exceeds remaining %d", n, len(r.s)))
		return ""
	}
	v := r.s[:n]
	r.s = r.s[n:]
	return v
}

// Fields reads a counted list of fields (see Count); an empty list reads
// as nil.
func (r *BinaryReader) Fields(what string) []string {
	// Each field is at least its 1-byte length.
	n := r.Count(what, 1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.Field()
	}
	return out
}

// Uint64 reads 8 bytes as a little-endian uint64.
func (r *BinaryReader) Uint64() uint64 {
	if len(r.s) < 8 {
		r.Fail(fmt.Errorf("truncated 8-byte field"))
		return 0
	}
	u := binary.LittleEndian.Uint64([]byte(r.s[:8]))
	r.s = r.s[8:]
	return u
}

// Float64 reads 8 little-endian bytes as an IEEE 754 double.
func (r *BinaryReader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Count reads an element count, rejecting one that elements of at least
// minSize bytes could not fit in the remaining bytes, so a corrupt count
// cannot size an allocation beyond what the input justifies.
func (r *BinaryReader) Count(what string, minSize int) int {
	n := r.Uvarint()
	if n > uint64(len(r.s)/minSize) {
		r.Fail(fmt.Errorf("%d %s cannot fit in %d bytes", n, what, len(r.s)))
		return 0
	}
	return int(n)
}

// Transaction reads one binary record into *tx, whose string fields then
// alias the payload: convert a wire payload to a string once and every
// record read from it shares that copy, with no further allocation.
// Structural validity only: run Validate for the log-line format's
// semantic checks.
func (r *BinaryReader) Transaction(tx *Transaction) {
	tx.Timestamp = time.Unix(0, r.Varint()).UTC()
	tx.Host = r.Field()
	tx.Scheme = r.Field()
	tx.Action = r.Field()
	tx.UserID = r.Field()
	tx.SourceIP = r.Field()
	tx.Category = r.Field()
	tx.MediaType.Super = r.Field()
	tx.MediaType.Sub = r.Field()
	tx.AppType = r.Field()
	tx.Reputation = taxonomy.Reputation(r.Byte())
	flags := r.Byte()
	if flags&^binaryFlagPrivate != 0 {
		r.Fail(fmt.Errorf("unknown flag bits %#x", flags))
	}
	tx.Private = flags&binaryFlagPrivate != 0
}

// The length-prefix framing shared by the cluster wire and the state
// tier's protocol: a frame is its payload's length as a 4-byte big-endian
// integer, then the payload. An empty payload or one above MaxFrameBytes
// is refused on both the write and the read side.

// MaxFrameBytes caps one frame's payload. The reader rejects a larger
// header before allocating, so a corrupt or hostile length prefix cannot
// balloon memory.
const MaxFrameBytes = 64 << 20

// AppendFrameHeader appends room for a frame's length prefix to dst.
// Append the payload after it, then pass the frame to FinishFrame.
func AppendFrameHeader(dst []byte) []byte { return append(dst, 0, 0, 0, 0) }

// FinishFrame fills in the length prefix of frame, a header from
// AppendFrameHeader followed by the payload, so the frame goes out in one
// write.
func FinishFrame(frame []byte) error {
	n := len(frame) - 4
	if err := checkFrameLen(uint64(n)); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	return nil
}

// ReadFrame reads one frame from r and returns its payload, read into buf
// when it fits (so a caller done with one payload may pass it back in for
// the next) and into a fresh slice otherwise. The header is read into buf
// too when it has room, so a frame read into a reused buffer allocates
// nothing. A clean EOF before any header byte returns io.EOF unwrapped,
// so callers can tell an orderly connection end.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	hdr := buf[:0]
	if cap(hdr) < 4 {
		hdr = make([]byte, 0, 4)
	}
	hdr = hdr[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr)
	if err := checkFrameLen(uint64(n)); err != nil {
		return nil, err
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("reading %d-byte frame payload: %w", n, err)
	}
	return buf, nil
}

// checkFrameLen refuses a payload length the framing does not carry.
func checkFrameLen(n uint64) error {
	if n == 0 {
		return fmt.Errorf("zero-length frame")
	}
	if n > MaxFrameBytes {
		return fmt.Errorf("frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	return nil
}
