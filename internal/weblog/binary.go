package weblog

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"time"

	"webtxprofile/internal/taxonomy"
)

// Binary transaction record — the wire-v2 payload unit shared by the
// collector's binary ingest mode and the cluster's binary feed frames.
// One record is:
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

// MinBinaryRecord is the smallest encoded record: a 1-byte timestamp
// varint, nine empty fields, reputation and flags. Decoders bound record
// counts with it, so a corrupt count cannot size an allocation beyond
// what the input could hold.
const MinBinaryRecord = 12

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

// AppendBinaryString appends s as a uvarint length plus its bytes — the
// string encoding of binary records, read back by ReadBinaryString.
func AppendBinaryString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeBinary decodes exactly one binary record. The record's string
// fields are carved out of a single fresh copy of rec, so the call costs
// one allocation regardless of field count.
func DecodeBinary(rec []byte) (Transaction, error) {
	tx, rest, err := DecodeBinaryFrom(string(rec))
	if err != nil {
		return Transaction{}, err
	}
	if rest != "" {
		return Transaction{}, fmt.Errorf("weblog: %d trailing bytes after binary record", len(rest))
	}
	return tx, nil
}

// DecodeBinaryFrom decodes one binary record from the front of s and
// returns the remainder — the shape a frame decoder wants for records
// concatenated back to back. The decoded string fields alias s's backing
// memory (zero copies); convert the wire payload to a string once and
// every record shares it. Structural validity only: run Validate for the
// log-line format's semantic checks.
func DecodeBinaryFrom(s string) (Transaction, string, error) {
	var tx Transaction
	rest, err := decodeBinaryInto(&tx, s)
	if err != nil {
		return Transaction{}, "", err
	}
	return tx, rest, nil
}

// decodeBinaryInto is DecodeBinaryFrom writing into *tx, which holds
// garbage on error.
func decodeBinaryInto(tx *Transaction, s string) (string, error) {
	ts, s, err := ReadBinaryVarint(s)
	if err != nil {
		return "", fmt.Errorf("weblog: binary record timestamp: %w", err)
	}
	tx.Timestamp = time.Unix(0, ts).UTC()
	fields := [9]*string{
		&tx.Host, &tx.Scheme, &tx.Action, &tx.UserID, &tx.SourceIP,
		&tx.Category, &tx.MediaType.Super, &tx.MediaType.Sub, &tx.AppType,
	}
	for i, f := range fields {
		if *f, s, err = ReadBinaryString(s); err != nil {
			return "", fmt.Errorf("weblog: binary record field %d: %w", i, err)
		}
	}
	if len(s) < 2 {
		return "", fmt.Errorf("weblog: binary record truncated before reputation")
	}
	tx.Reputation = taxonomy.Reputation(s[0])
	flags := s[1]
	if flags&^binaryFlagPrivate != 0 {
		return "", fmt.Errorf("weblog: binary record has unknown flag bits %#x", flags)
	}
	tx.Private = flags&binaryFlagPrivate != 0
	return s[2:], nil
}

// ReadBinaryVarint is binary.Varint over a string, returning the rest —
// the primitive binary records (and the cluster frames that carry them)
// are read with.
func ReadBinaryVarint(s string) (int64, string, error) {
	ux, rest, err := ReadBinaryUvarint(s)
	if err != nil {
		return 0, "", err
	}
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, rest, nil
}

// ReadBinaryUvarint is binary.Uvarint over a string, returning the rest.
func ReadBinaryUvarint(s string) (uint64, string, error) {
	var x uint64
	var shift uint
	for i := 0; i < len(s); i++ {
		if i == binary.MaxVarintLen64 {
			break
		}
		b := s[i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, "", fmt.Errorf("uvarint overflows 64 bits")
			}
			return x | uint64(b)<<shift, s[i+1:], nil
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	if len(s) > binary.MaxVarintLen64 {
		return 0, "", fmt.Errorf("uvarint overflows 64 bits")
	}
	return 0, "", fmt.Errorf("truncated uvarint")
}

// ReadBinaryString reads one uvarint-length-prefixed string, returning the
// field (aliasing s) and the rest.
func ReadBinaryString(s string) (string, string, error) {
	n, rest, err := ReadBinaryUvarint(s)
	if err != nil {
		return "", "", err
	}
	if n > uint64(len(rest)) {
		return "", "", fmt.Errorf("field of %d bytes exceeds remaining %d", n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

// BinaryReader walks a payload built from this file's primitives —
// varints, length-prefixed strings, binary records — as the state and
// cluster codecs lay them out. The first error sticks: every later read
// returns a zero value, so a decoder checks Err once at the end. Decoded
// strings alias the payload.
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

// advance moves the reader to rest after a read whose canonical encoding
// is want bytes long.
func (r *BinaryReader) advance(rest string, want int) {
	if r.canonical && len(r.s)-len(rest) != want {
		r.Fail(fmt.Errorf("non-canonical encoding"))
		return
	}
	r.s = rest
}

// uvarintLen is the length of x's minimal uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the length of x's zigzag varint encoding.
func varintLen(x int64) int { return uvarintLen(uint64(x)<<1 ^ uint64(x>>63)) }

// binaryLen is the length of t's AppendBinary encoding.
func (t *Transaction) binaryLen() int {
	n := varintLen(t.Timestamp.UnixNano()) + 2 // + reputation, flags
	for _, f := range [...]string{t.Host, t.Scheme, t.Action, t.UserID, t.SourceIP,
		t.Category, t.MediaType.Super, t.MediaType.Sub, t.AppType} {
		n += uvarintLen(uint64(len(f))) + len(f)
	}
	return n
}

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

// Uvarint reads one uvarint.
func (r *BinaryReader) Uvarint() uint64 {
	x, rest, err := ReadBinaryUvarint(r.s)
	if err != nil {
		r.Fail(err)
		return 0
	}
	r.advance(rest, uvarintLen(x))
	return x
}

// Varint reads one zigzag varint.
func (r *BinaryReader) Varint() int64 {
	x, rest, err := ReadBinaryVarint(r.s)
	if err != nil {
		r.Fail(err)
		return 0
	}
	r.advance(rest, varintLen(x))
	return x
}

// Int reads one zigzag varint as an int.
func (r *BinaryReader) Int() int { return int(r.Varint()) }

// Field reads one uvarint-length-prefixed string.
func (r *BinaryReader) Field() string {
	v, rest, err := ReadBinaryString(r.s)
	if err != nil {
		r.Fail(err)
		return ""
	}
	r.advance(rest, uvarintLen(uint64(len(v)))+len(v))
	return v
}

// Float64 reads 8 little-endian bytes as an IEEE 754 double.
func (r *BinaryReader) Float64() float64 {
	if len(r.s) < 8 {
		r.Fail(fmt.Errorf("truncated float"))
		return 0
	}
	u := binary.LittleEndian.Uint64([]byte(r.s[:8]))
	r.s = r.s[8:]
	return math.Float64frombits(u)
}

// Transaction decodes one binary record into dst.
func (r *BinaryReader) Transaction(dst *Transaction) {
	rest, err := decodeBinaryInto(dst, r.s)
	if err != nil {
		r.Fail(err)
		return
	}
	if r.canonical {
		r.advance(rest, dst.binaryLen())
		return
	}
	r.s = rest
}

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
