package statestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// stateMessageSeeds are the checked-in seeds for FuzzStateMessage: every
// message of TestWireRoundTrip encoded, plus malformed payloads the
// decoder must refuse. Kept in code so the testdata corpus is
// reproducible (see TestRegenerateStateMessageCorpus).
func stateMessageSeeds(tb testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(7))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	var seeds [][]byte
	for _, m := range wireSampleMessages(randBytes) {
		enc, err := appendMessage(nil, m)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, enc)
	}
	return append(seeds,
		[]byte{},          // empty payload
		[]byte{wireMagic}, // bare magic
		[]byte{0xF7, wireVersion, opGet, 0x01, 0x00},                     // the cluster's magic
		[]byte{wireMagic, wireVersion + 1, opList, 0x01},                 // another version
		[]byte{wireMagic, wireVersion, 0x7F, 0x01},                       // unknown op
		[]byte{wireMagic, wireVersion, opList},                           // missing seq
		[]byte{wireMagic, wireVersion, opList, 0x80},                     // truncated seq
		[]byte{wireMagic, wireVersion, opList, 0x01, 0},                  // trailing byte
		[]byte{wireMagic, wireVersion, opPut, 0x01, 0x7F, 0, 0, 0},       // put count exceeds payload
		[]byte{wireMagic, wireVersion, opPut, 0x01, 0x01, 1, 'd', 1, 5},  // truncated blob
		[]byte{wireMagic, wireVersion, opGetOK, 0x01, 0x02, 0x01, 0x00},  // non-canonical found byte
		[]byte{wireMagic, wireVersion, opPutOK, 0x01, 0x81, 0x00},        // padded count
		[]byte{wireMagic, wireVersion, opListOK, 0x01, 0x03, 1, 'a', 1},  // truncated device list
		[]byte{wireMagic, wireVersion, opErr, 0x01, 0xFF, 0xFF, 0xFF, 0}, // error longer than payload
	)
}

// FuzzStateMessage: arbitrary bytes fed to the state-tier decoder must
// give a message or an error, never a panic; a message that decodes must
// survive re-encoding and decoding unchanged, and its re-encoding must be
// a fixed point.
func FuzzStateMessage(f *testing.F) {
	for _, seed := range stateMessageSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m1, err := decodeMessage(data)
		if err != nil {
			return
		}
		enc1, err := appendMessage(nil, m1)
		if err != nil {
			t.Fatalf("decoded message %+v does not re-encode: %v", m1, err)
		}
		m2, err := decodeMessage(enc1)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		if !reflect.DeepEqual(m1, m2) {
			t.Fatalf("round trip drifted:\n%+v\n%+v", m1, m2)
		}
		enc2, err := appendMessage(nil, m2)
		if err != nil {
			t.Fatalf("round-tripped message does not re-encode: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding is not a fixed point:\n first %x\nsecond %x", enc1, enc2)
		}
	})
}

// TestRegenerateStateMessageCorpus rewrites
// testdata/fuzz/FuzzStateMessage from stateMessageSeeds when
// WTP_REGEN_CORPUS=1; otherwise it verifies the checked-in corpus exists.
// The seeds are byte-stable, so CI regenerates them and fails when the
// checked-in corpus drifts.
func TestRegenerateStateMessageCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzStateMessage")
	seeds := stateMessageSeeds(t)
	if os.Getenv("WTP_REGEN_CORPUS") == "1" {
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
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz corpus missing (run with WTP_REGEN_CORPUS=1 to create): %v", err)
	}
	if len(entries) < len(seeds) {
		t.Errorf("corpus has %d entries, want >= %d", len(entries), len(seeds))
	}
}
