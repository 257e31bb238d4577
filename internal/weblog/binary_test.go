package weblog

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"webtxprofile/internal/taxonomy"
)

func binarySampleTxs() []Transaction {
	return []Transaction{
		{
			Timestamp: time.Date(2015, 5, 29, 5, 5, 4, 123e6, time.UTC),
			Host:      "www.inlinegames.com", Scheme: taxonomy.SchemeHTTP,
			Action: taxonomy.ActionGet, UserID: "user_9", SourceIP: "10.0.0.9",
			Category:  "Games",
			MediaType: taxonomy.MediaType{Super: "text", Sub: "html"},
			AppType:   "browser", Reputation: taxonomy.MinimalRisk,
		},
		{
			// Nanosecond timestamp and 8-bit-dirty fields: both are legal in
			// the binary record though the line format cannot carry them.
			Timestamp: time.Date(2021, 11, 3, 17, 0, 0, 987654321, time.UTC),
			Host:      "a,b\nc", Scheme: taxonomy.SchemeHTTPS,
			Action: taxonomy.ActionConnect, UserID: "u", SourceIP: "10.1.2.3",
			Reputation: taxonomy.HighRisk, Private: true,
		},
		{
			Timestamp: time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC),
			Host:      "pre-epoch.example", Scheme: taxonomy.SchemeHTTP,
			Action: taxonomy.ActionHead, UserID: "u2", SourceIP: "10.9.9.9",
			Reputation: taxonomy.MediumRisk,
		},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, tx := range binarySampleTxs() {
		rec := tx.AppendBinary(nil)
		back, err := DecodeBinary(rec)
		if err != nil {
			t.Fatalf("decode %+v: %v", tx, err)
		}
		if !reflect.DeepEqual(back, tx) {
			t.Errorf("round trip drifted:\n  in: %+v\n out: %+v", tx, back)
		}
	}
}

// TestBinaryMatchesLineFormat: any transaction that survives the log-line
// format must decode identically from its binary record — the binary
// codec is a lossless superset of the line format, which is what makes
// line and binary collector feeds equivalent.
func TestBinaryMatchesLineFormat(t *testing.T) {
	for _, tx := range binarySampleTxs()[:1] {
		viaLine, err := ParseLine(tx.MarshalLine())
		if err != nil {
			t.Fatal(err)
		}
		viaBinary, err := DecodeBinary(viaLine.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(viaBinary, viaLine) {
			t.Errorf("binary record drifts from line format:\n line: %+v\n  bin: %+v", viaLine, viaBinary)
		}
	}
}

func TestDecodeBinaryFromConcatenated(t *testing.T) {
	txs := binarySampleTxs()
	var buf []byte
	for i := range txs {
		buf = txs[i].AppendBinary(buf)
	}
	rest := string(buf)
	for i := range txs {
		var tx Transaction
		var err error
		tx, rest, err = DecodeBinaryFrom(rest)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(tx, txs[i]) {
			t.Errorf("record %d drifted:\n  in: %+v\n out: %+v", i, txs[i], tx)
		}
	}
	if rest != "" {
		t.Errorf("%d trailing bytes after last record", len(rest))
	}
}

func TestDecodeBinaryRejectsMalformed(t *testing.T) {
	valid := binarySampleTxs()[0].AppendBinary(nil)
	cases := map[string][]byte{
		"empty":             nil,
		"truncated varint":  {0x80, 0x80},
		"truncated field":   valid[:len(valid)/2],
		"missing flags":     valid[:len(valid)-1],
		"unknown flag bits": append(append([]byte(nil), valid[:len(valid)-1]...), 0xFE),
		"trailing bytes":    append(append([]byte(nil), valid...), 0x00),
		"huge field length": {0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
	}
	for name, rec := range cases {
		if _, err := DecodeBinary(rec); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestBinaryDecodeAllocs gates the zero-copy contract: decoding from an
// already-converted string allocates nothing.
func TestBinaryDecodeAllocs(t *testing.T) {
	tx := binarySampleTxs()[0]
	s := string(tx.AppendBinary(nil))
	if avg := testing.AllocsPerRun(200, func() {
		if _, _, err := DecodeBinaryFrom(s); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Errorf("DecodeBinaryFrom allocates %.1f times per record, want 0", avg)
	}
}

func TestBinaryFieldsAliasInput(t *testing.T) {
	tx := binarySampleTxs()[0]
	s := string(tx.AppendBinary(nil))
	got, _, err := DecodeBinaryFrom(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, got.Host) {
		t.Fatal("decoded host not present in input")
	}
}

// TestCanonicalBinaryReader: a padded varint (a redundant continuation
// byte) decodes to the same value everywhere except the canonical reader,
// which rejects it; minimal encodings read identically in both modes.
func TestCanonicalBinaryReader(t *testing.T) {
	tx := binarySampleTxs()[1]
	rec := tx.AppendBinary(nil)
	// Host length (after the timestamp varint) padded with a 0x80 0x00 tail.
	tsLen := varintLen(tx.Timestamp.UnixNano())
	padded := append(append(append([]byte(nil), rec[:tsLen]...), rec[tsLen]|0x80, 0x00), rec[tsLen+1:]...)
	if got, err := DecodeBinary(padded); err != nil || !reflect.DeepEqual(got, tx) {
		t.Fatalf("DecodeBinary of a padded record: %+v, %v", got, err)
	}

	read := func(r *BinaryReader) (Transaction, uint64, int64, string, error) {
		var got Transaction
		r.Transaction(&got)
		u, v, f := r.Uvarint(), r.Varint(), r.Field()
		return got, u, v, f, r.Done()
	}
	minimal := append(append(rec, 0x05, 0x03), 1, 'x')
	for _, canonical := range []bool{false, true} {
		r := NewBinaryReader(string(minimal))
		if canonical {
			r = NewCanonicalBinaryReader(string(minimal))
		}
		if got, u, v, f, err := read(r); err != nil || !reflect.DeepEqual(got, tx) || u != 5 || v != -2 || f != "x" {
			t.Errorf("canonical=%v: minimal payload read %+v %d %d %q, %v", canonical, got, u, v, f, err)
		}
	}

	cases := map[string][]byte{
		"padded record":  append(append([]byte(nil), padded...), 0x05, 0x03, 1, 'x'),
		"padded uvarint": append(append([]byte(nil), rec...), 0x85, 0x00, 0x03, 1, 'x'),
		"padded varint":  append(append([]byte(nil), rec...), 0x05, 0x83, 0x00, 1, 'x'),
		"padded length":  append(append([]byte(nil), rec...), 0x05, 0x03, 0x81, 0x00, 'x'),
	}
	for name, payload := range cases {
		if _, _, _, _, err := read(NewBinaryReader(string(payload))); err != nil {
			t.Errorf("%s: plain reader refused it: %v", name, err)
		}
		if _, _, _, _, err := read(NewCanonicalBinaryReader(string(payload))); err == nil {
			t.Errorf("%s: canonical reader accepted it", name)
		}
	}
}
