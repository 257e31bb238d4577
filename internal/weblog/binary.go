package weblog

import (
	"encoding/binary"
	"fmt"
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

// binaryFlagPrivate is the Private field's bit in the record's flags byte.
const binaryFlagPrivate = 0x01

// AppendBinary appends t encoded as one binary record to dst and returns
// the extended slice. Encode validated transactions only: the format
// assumes a timestamp inside the int64 UnixNano range.
func (t *Transaction) AppendBinary(dst []byte) []byte {
	ts := t.Timestamp.UnixNano()
	dst = binary.AppendVarint(dst, ts)
	dst = appendBinaryString(dst, t.Host)
	dst = appendBinaryString(dst, t.Scheme)
	dst = appendBinaryString(dst, t.Action)
	dst = appendBinaryString(dst, t.UserID)
	dst = appendBinaryString(dst, t.SourceIP)
	dst = appendBinaryString(dst, t.Category)
	dst = appendBinaryString(dst, t.MediaType.Super)
	dst = appendBinaryString(dst, t.MediaType.Sub)
	dst = appendBinaryString(dst, t.AppType)
	dst = append(dst, byte(t.Reputation))
	var flags byte
	if t.Private {
		flags |= binaryFlagPrivate
	}
	return append(dst, flags)
}

func appendBinaryString(dst []byte, s string) []byte {
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
	ts, s, err := ReadBinaryVarint(s)
	if err != nil {
		return Transaction{}, "", fmt.Errorf("weblog: binary record timestamp: %w", err)
	}
	var tx Transaction
	tx.Timestamp = time.Unix(0, ts).UTC()
	fields := [9]*string{
		&tx.Host, &tx.Scheme, &tx.Action, &tx.UserID, &tx.SourceIP,
		&tx.Category, &tx.MediaType.Super, &tx.MediaType.Sub, &tx.AppType,
	}
	for i, f := range fields {
		if *f, s, err = ReadBinaryString(s); err != nil {
			return Transaction{}, "", fmt.Errorf("weblog: binary record field %d: %w", i, err)
		}
	}
	if len(s) < 2 {
		return Transaction{}, "", fmt.Errorf("weblog: binary record truncated before reputation")
	}
	tx.Reputation = taxonomy.Reputation(s[0])
	flags := s[1]
	if flags&^binaryFlagPrivate != 0 {
		return Transaction{}, "", fmt.Errorf("weblog: binary record has unknown flag bits %#x", flags)
	}
	tx.Private = flags&binaryFlagPrivate != 0
	return tx, s[2:], nil
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
