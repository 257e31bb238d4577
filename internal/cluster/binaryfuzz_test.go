package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"webtxprofile/internal/core"
	"webtxprofile/internal/features"
	"webtxprofile/internal/sparse"
	"webtxprofile/internal/taxonomy"
	"webtxprofile/internal/weblog"
)

// binarySeedTx is a representative transaction for the corpus seeds.
func binarySeedTx() weblog.Transaction {
	return weblog.Transaction{
		Timestamp: time.Date(2015, 5, 29, 5, 5, 4, 123e6, time.UTC),
		Host:      "www.inlinegames.com", Scheme: taxonomy.SchemeHTTP,
		Action: taxonomy.ActionGet, UserID: "user_9", SourceIP: "10.0.0.9",
		Category:  "Games",
		MediaType: taxonomy.MediaType{Super: "text", Sub: "html"},
		AppType:   "browser", Reputation: taxonomy.MinimalRisk,
	}
}

// binarySeedAlert is an alert carrying a full window event: vector, user
// counts, accepted users.
func binarySeedAlert() *NodeAlert {
	start := time.Date(2015, 5, 29, 5, 0, 0, 0, time.UTC)
	return &NodeAlert{Node: "n2", Seq: 7, Alert: core.Alert{
		Device: "10.0.0.9", Kind: core.AlertIdentified, User: "user_9", Previous: "user_2",
		Event: core.Event{
			Window: features.Window{
				Start: start, End: start.Add(10 * time.Minute),
				Vector: sparse.Vector{Idx: []int32{0, 7, 4095}, Val: []float64{1, 0.25, -3.5e-7}},
				Count:  12, Entity: "10.0.0.9",
				UserCounts: map[string]int{"user_9": 11, "user_2": 1},
			},
			Accepted:   []string{"user_9", "user_4"},
			Identified: "user_9",
		},
	}}
}

// binaryCorpusSeeds are the checked-in seeds for FuzzBinaryFrame: one
// well-formed payload per frame shape plus the malformed inputs
// the decoder must reject cleanly. Kept in code so the testdata corpus
// is reproducible (see TestRegenerateBinaryFuzzCorpus).
func binaryCorpusSeeds(t testing.TB) [][]byte {
	tx := binarySeedTx()
	valid := []Frame{
		{Type: FrameHello, Seq: 1, Node: "router-1", Subscribe: true},
		{Type: FrameHello, Seq: 1, Node: "router-1", Subscribe: true, Client: "router-1/ab12", Resume: true, Cursor: 42},
		{Type: FrameFeed, Seq: 2, Txs: []weblog.Transaction{tx, tx}},
		{Type: FrameFeed, Seq: 4, Replay: true, Txs: []weblog.Transaction{tx}},
		{Type: FrameExport, Seq: 5, Devices: []string{"10.0.0.1", "10.0.0.2"}},
		{Type: FrameExport, Seq: 6},
		{Type: FrameList, Seq: 11},
		{Type: FrameGossip, Seq: 12, Gossip: &GossipState{
			Membership: Membership{Version: 3, Members: []Member{{Name: "n1", Addr: "10.1.0.1:7100"}}},
			Overrides:  []Override{{Device: "10.0.0.1", Node: "n1", Ver: 5}, {Device: "10.0.0.2", Ver: 6}},
		}},
		{Type: FrameFlush, Seq: 13},
		{Type: FrameStats, Seq: 14},
		{Type: FrameOK, Seq: 15, Count: 3},
		{Type: FrameOK, Seq: 16, Count: -1},
		{Type: FrameOK, Seq: 17, Devices: []string{"10.0.0.1"}, Cursor: 9},
		{Type: FrameError, Seq: 18, Error: "refused"},
		{Type: FrameAlert, Seq: 19, Alert: &NodeAlert{Node: "n1", Seq: 19, Alert: core.Alert{
			Device: "10.0.0.1", Kind: core.AlertLost, User: "user_2", Previous: "user_2",
		}}},
		{Type: FrameAlert, Alert: &NodeAlert{Node: "n1", Alert: core.Alert{
			Device: "10.0.0.1", Kind: core.AlertLost, User: "user_2", Previous: "user_2",
		}}},
		{Type: FrameAlert, Seq: 20, Alert: binarySeedAlert()},
	}
	var seeds [][]byte
	for _, f := range valid {
		payload, err := AppendBinaryFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, payload)
	}
	seeds = append(seeds,
		[]byte{},                                                                  // empty payload
		[]byte{binaryMagic},                                                       // bare magic
		[]byte{binaryMagic, 0x01, 0x01, 0x00},                                     // wrong version byte
		[]byte{binaryMagic, wireVersion, 0x00, 0x00},                              // frame type code 0
		[]byte{binaryMagic, wireVersion, 0x63, 0x00},                              // unknown frame type code
		[]byte{binaryMagic, wireVersion, 0x01},                                    // missing seq varint
		[]byte{binaryMagic, wireVersion, 0x01, 0x80},                              // truncated seq varint
		[]byte{binaryMagic, wireVersion, 0x01, 0x01, 0xff},                        // unknown field tag
		[]byte{binaryMagic, wireVersion, 0x02, 0x01, tagTxs, 0xff, 0xff, 3},       // tx count exceeds payload
		[]byte{binaryMagic, wireVersion, 0x01, 0x01, 3, 0x01},                     // retired tag 3 (wire version)
		[]byte{binaryMagic, wireVersion, 0x02, 0x01, 4, 0x01, 0x00},               // retired tag 4 (log lines)
		[]byte{binaryMagic, wireVersion, 0x09, 0x00, 9, 0x02, '{', '}'},           // retired tag 9 (JSON alert)
		[]byte{binaryMagic, wireVersion, 0x04, 0x07, 6, 0x01, 'x'},                // retired code 4 (import) with retired tag 6
		[]byte{binaryMagic, wireVersion, 0x0a, 0x09, 11, 0x01, 'h'},               // retired code 10 (commit)
		[]byte{binaryMagic, wireVersion, 0x0b, 0x0a, 11, 0x01, 'h'},               // retired code 11 (abort)
		[]byte{binaryMagic, wireVersion, 0x07, 0x0f, 6, 0x04, 'b', 'l', 'o', 'b'}, // retired tag 6 (state blob)
		[]byte{binaryMagic, wireVersion, 0x03, 0x06, 11, 0x01, 'h'},               // retired tag 11 (handoff id)
		[]byte{binaryMagic, wireVersion, 0x03, 0x05, tagDevices, 0x7f, 'x'},       // device count exceeds payload
	)
	return seeds
}

// FuzzBinaryFrame: arbitrary bytes fed to the frame payload decoder
// must produce a frame or an error — never a panic, never allocation
// beyond what the input length justifies — and any frame that decodes
// must reach an encode/decode fixed point: re-encoding the canonical
// form reproduces it bit-for-bit.
func FuzzBinaryFrame(f *testing.F) {
	for _, seed := range binaryCorpusSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		f1, err := decodeBinaryFrame(data)
		if err != nil {
			return
		}
		// The first decode may hold non-canonical shapes (e.g. an empty
		// but non-nil Blob from a zero-length field the encoder would
		// omit); one round trip canonicalizes, after which encoding must
		// be a fixed point.
		enc1, err := AppendBinaryFrame(nil, f1)
		if err != nil {
			t.Fatalf("decoded frame %+v does not re-encode: %v", f1, err)
		}
		f2, err := decodeBinaryFrame(enc1)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if f2.Type != f1.Type || f2.Seq != f1.Seq {
			t.Fatalf("round trip drifted: %+v -> %+v", f1, f2)
		}
		enc2, err := AppendBinaryFrame(nil, f2)
		if err != nil {
			t.Fatalf("canonical frame does not re-encode: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding is not a fixed point:\n first %x\nsecond %x", enc1, enc2)
		}
		f3, err := decodeBinaryFrame(enc2)
		if err != nil {
			t.Fatalf("fixed-point encoding does not decode: %v", err)
		}
		if !reflect.DeepEqual(f2, f3) {
			t.Fatalf("canonical decode is unstable:\n%+v\n%+v", f2, f3)
		}
	})
}

// TestBinaryFrameRoundTrip pins exact equality for every producer-built
// frame shape: what the writer encodes, the reader decodes back
// field-for-field (the fuzz target only guarantees fixed-point
// stability, which is weaker).
func TestBinaryFrameRoundTrip(t *testing.T) {
	tx := binarySeedTx()
	tx.Scheme, tx.Action = taxonomy.SchemeHTTPS, taxonomy.ActionPost
	tx.Reputation, tx.Private = taxonomy.HighRisk, true
	frames := []Frame{
		{Type: FrameHello, Seq: 1, Node: "router-1", Subscribe: true},
		{Type: FrameFeed, Seq: 2, Txs: []weblog.Transaction{tx}},
		{Type: FrameExport, Seq: 3, Devices: []string{"10.0.0.1", "10.0.0.2"}},
		{Type: FrameList, Seq: 4},
		{Type: FrameOK, Seq: 5, Count: -7},
		{Type: FrameError, Seq: 6, Error: "refused"},
		{Type: FrameAlert, Seq: 7, Alert: binarySeedAlert()},
	}
	for _, want := range frames {
		payload, err := AppendBinaryFrame(nil, want)
		if err != nil {
			t.Fatalf("%s: %v", want.Type, err)
		}
		got, err := decodeBinaryFrame(payload)
		if err != nil {
			t.Fatalf("%s: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s frame drifted:\n got %+v\nwant %+v", want.Type, got, want)
		}
	}
}

// TestRegenerateBinaryFuzzCorpus rewrites testdata/fuzz/FuzzBinaryFrame
// from binaryCorpusSeeds when WTP_REGEN_CORPUS=1, so the checked-in
// corpus never drifts from the codec. Normally it only verifies the
// files exist.
func TestRegenerateBinaryFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzBinaryFrame")
	if os.Getenv("WTP_REGEN_CORPUS") == "1" {
		writeCorpus(t, dir, binaryCorpusSeeds(t))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz corpus missing (run with WTP_REGEN_CORPUS=1 to create): %v", err)
	}
	if len(entries) < len(binaryCorpusSeeds(t)) {
		t.Errorf("corpus has %d entries, want >= %d", len(entries), len(binaryCorpusSeeds(t)))
	}
}
