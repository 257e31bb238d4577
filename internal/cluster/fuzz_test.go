package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"webtxprofile/internal/core"
	"webtxprofile/internal/weblog"
)

// legacyJSONFrames are the JSON frame payloads older builds wrote (one
// per frame type, plus junk and an unknown type). ReadFrame must refuse
// every one of them with ErrWireVersion (TestReadFrameRejectsMalformed).
var legacyJSONFrames = []string{
	`{"type":"hello","seq":1,"node":"router-1","subscribe":true}`,
	`{"type":"hello","seq":1,"node":"router-1","subscribe":true,"client":"router-1/ab12","cursor":42,"resume":true}`,
	`{"type":"feed","seq":2,"lines":["2015-01-05 09:00:00.000, svc.example.com, http, GET, user_1, 10.0.0.1, Games, text/html, app, minimal-risk, public"]}`,
	`{"type":"feed","seq":2,"lines":["2015-01-05 09:00:00.000, svc.example.com, http, GET, user_1, 10.0.0.1, Games, text/html, app, minimal-risk, public"],"replay":true}`,
	`{"type":"export","seq":3,"devices":["10.0.0.1","10.0.0.2"]}`,
	`{"type":"export","seq":3,"devices":["10.0.0.1"],"handoff":"ab12/1"}`,
	`{"type":"import","seq":4,"blob":"H4sIAAA="}`,
	`{"type":"import","seq":4,"blob":"H4sIAAA=","handoff":"ab12/1"}`,
	`{"type":"commit","seq":5,"handoff":"ab12/1"}`,
	`{"type":"abort","seq":6,"handoff":"ab12/1"}`,
	`{"type":"list","seq":7}`,
	`{"type":"gossip","seq":8,"gossip":{"membership":{"Version":3,"Members":[{"Name":"n1","Addr":"10.1.0.1:7100"}]},"overrides":[{"device":"10.0.0.1","node":"n1","ver":5},{"device":"10.0.0.2","ver":6}]}}`,
	`{"type":"flush","seq":9}`,
	`{"type":"stats","seq":10}`,
	`{"type":"ok","seq":11,"blob":"YmxvYg==","count":3}`,
	`{"type":"ok","seq":12,"devices":["10.0.0.1"],"cursor":9}`,
	`{"type":"error","seq":13,"error":"refused"}`,
	`{"type":"alert","seq":14,"alert":{"node":"n1","alert":{"Device":"10.0.0.1","Kind":2,"User":"user_2","Previous":"user_2","Event":{"Window":{"Start":"0001-01-01T00:00:00Z","End":"0001-01-01T00:00:00Z","Vector":{"Idx":null,"Val":null},"Count":0,"Entity":"","UserCounts":null},"Accepted":null,"Identified":""}},"seq":14}}`,
	`nope`,
	`{"type":"warp"}`,
}

// lengthPrefixed frames payload behind its 4-byte big-endian length.
func lengthPrefixed(payload string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// corpusSeeds are the checked-in seeds for FuzzReadFrame: one well-formed
// frame of each type, the legacy JSON frames the reader must refuse, and
// the malformed shapes it must reject cleanly. Kept in code so the
// testdata corpus is reproducible (see TestRegenerateFuzzCorpus).
func corpusSeeds(t testing.TB) [][]byte {
	tx := binarySeedTx()
	valid := []Frame{
		{Type: FrameHello, Seq: 1, Node: "router-1", Subscribe: true},
		{Type: FrameHello, Seq: 1, Node: "router-1", Subscribe: true, Client: "router-1/ab12", Resume: true, Cursor: 42},
		{Type: FrameFeed, Seq: 2, Txs: []weblog.Transaction{tx}},
		{Type: FrameFeed, Seq: 2, Replay: true, Txs: []weblog.Transaction{tx}},
		{Type: FrameExport, Seq: 3, Devices: []string{"10.0.0.1", "10.0.0.2"}},
		{Type: FrameExport, Seq: 3},
		{Type: FrameList, Seq: 7},
		{Type: FrameGossip, Seq: 8, Gossip: &GossipState{
			Membership: Membership{Version: 3, Members: []Member{{Name: "n1", Addr: "10.1.0.1:7100"}}},
		}},
		{Type: FrameFlush, Seq: 9},
		{Type: FrameStats, Seq: 10},
		{Type: FrameOK, Seq: 11, Count: 3},
		{Type: FrameOK, Seq: 12, Devices: []string{"10.0.0.1"}, Cursor: 9},
		{Type: FrameError, Seq: 13, Error: "refused"},
		{Type: FrameAlert, Seq: 14, Alert: &NodeAlert{Node: "n1", Seq: 14, Alert: core.Alert{
			Device: "10.0.0.1", Kind: core.AlertLost, User: "user_2", Previous: "user_2",
		}}},
	}
	var seeds [][]byte
	for _, f := range valid {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	for _, payload := range legacyJSONFrames {
		seeds = append(seeds, lengthPrefixed(payload))
	}
	seeds = append(seeds,
		[]byte{},                           // empty input
		[]byte{0, 0},                       // truncated header
		[]byte{0, 0, 0, 0},                 // zero length
		[]byte{0xff, 0xff, 0xff, 0xff},     // absurd length
		[]byte{0, 0, 0, 4, 'n', 'o'},       // truncated payload
		lengthPrefixed("\xf7\x01\x01\x01"), // foreign version byte
		// An older build's staged handoff: retired frame codes 4, 10
		// and 11, and retired tags 6 (state blob) and 11 (handoff id).
		lengthPrefixed("\xf7\x02\x04\x04\x06\x05\x1f\x8b\x08\x00\x00\x0b\x06ab12/1"),
		lengthPrefixed("\xf7\x02\x0a\x05\x0b\x06ab12/1"),
		lengthPrefixed("\xf7\x02\x0b\x06\x0b\x06ab12/1"),
		lengthPrefixed("\xf7\x02\x07\x0b\x07\x06\x06\x04blob"),
		lengthPrefixed("\xf7\x02\x03\x03\x05\x01\x0810.0.0.1\x0b\x06ab12/1"),
	)
	return seeds
}

// FuzzReadFrame: arbitrary bytes must decode to a frame or an error —
// never a panic, never unbounded allocation — and anything that decodes
// must survive a re-encode/re-decode round trip.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range corpusSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatalf("decoded frame %+v does not re-encode: %v", fr, err)
		}
		back, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if back.Type != fr.Type || back.Seq != fr.Seq {
			t.Fatalf("round trip drifted: %+v -> %+v", fr, back)
		}
		if _, err := ReadFrame(bytes.NewReader(data)); err != nil {
			t.Fatal("decoding is not deterministic")
		}
	})
}

// TestRegenerateFuzzCorpus rewrites testdata/fuzz/FuzzReadFrame from
// corpusSeeds when WTP_REGEN_CORPUS=1, so the checked-in corpus never
// drifts from the protocol. Normally it only verifies the files exist.
func TestRegenerateFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadFrame")
	if os.Getenv("WTP_REGEN_CORPUS") == "1" {
		writeCorpus(t, dir, corpusSeeds(t))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz corpus missing (run with WTP_REGEN_CORPUS=1 to create): %v", err)
	}
	if len(entries) < len(corpusSeeds(t)) {
		t.Errorf("corpus has %d entries, want >= %d", len(entries), len(corpusSeeds(t)))
	}
}

// writeCorpus emits seeds in the go-fuzz corpus file format.
func writeCorpus(t testing.TB, dir string, seeds [][]byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	old, err := filepath.Glob(filepath.Join(dir, "seed-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range old {
		os.Remove(f)
	}
	for i, seed := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
