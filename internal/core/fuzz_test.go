package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"webtxprofile/internal/weblog"
)

// stateBlobSeeds are the checked-in seeds for FuzzDeviceStateBlob: real
// encoded state (a device mid-stream on the shared trained set — its
// binary blob, the same state as a legacy JSON blob, and a whole shard
// export), hand-damaged variants, plain garbage, and the version-2
// fixture with damaged variants of it. Kept in code so the testdata
// corpus is reproducible (see TestRegenerateStateFuzzCorpus).
func stateBlobSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	set, testDS := sharedSetForFuzz(tb)
	txs, _ := deviceStream(testDS, 1, 60)
	mon, err := NewMonitor(set, 2, func(Alert) {})
	if err != nil {
		tb.Fatal(err)
	}
	defer mon.Close()
	for _, tx := range txs {
		if err := mon.Feed(tx); err != nil {
			tb.Fatal(err)
		}
	}
	device := txs[0].SourceIP
	sh := mon.shardFor(device)
	sh.mu.Lock()
	st := deviceStateLocked(device, sh.devices[device])
	sh.mu.Unlock()
	blob := EncodeDeviceState(st)
	legacy := legacyJSONState(tb, st, txs)
	export, _, err := mon.ExportStaged("fuzz", []string{device})
	if err != nil {
		tb.Fatal(err)
	}
	truncated := append([]byte(nil), blob[:len(blob)/2]...)
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/3] ^= 0xff
	future := append([]byte(nil), blob...)
	future[0] = stateVersion + 1
	// An anchored state whose record count claims far more records than
	// follow it.
	overcount := append([]byte{stateVersion}, 1, 'x', 0, stateFlagAnchored, 1, 'x', 2, 1, 'x', 0, 0)
	overcount = binary.AppendVarint(overcount, txs[0].Timestamp.UnixNano())
	overcount = binary.AppendVarint(overcount, txs[0].Timestamp.UnixNano())
	fp := set.Vocabulary.Fingerprint()
	overcount = binary.LittleEndian.AppendUint64(binary.AppendUvarint(overcount, uint64(fp.Size)), fp.Hash)
	overcount = binary.AppendUvarint(append(overcount, 1, 1, 'u'), 1<<20)
	v2, err := os.ReadFile(v2Fixture)
	if err != nil {
		tb.Fatal(err)
	}
	v2Truncated := append([]byte(nil), v2[:len(v2)/2]...)
	v2Flipped := append([]byte(nil), v2...)
	v2Flipped[len(v2Flipped)/3] ^= 0xff
	return [][]byte{
		blob,
		legacy,
		export,
		truncated,
		flipped,
		future,
		overcount,
		{stateVersion, 0xff, 0xff, 0x03}, // shard export claiming 65535 devices
		[]byte(`{}`),
		[]byte(`{"version":99,"device":"x"}`),
		[]byte(`{"version":1,"device":"x","identifier":{"host":"y"}}`),
		[]byte(`{"version":1}`),
		[]byte("not json at all"),
		{0x1f, 0x8b, 0x08, 0x00}, // gzip magic, truncated body
		{},
		v2,
		v2Truncated,
		v2Flipped,
	}
}

// sharedSetForFuzz adapts sharedSet's *testing.T-shaped helper to the
// testing.TB both fuzz setup (*testing.F) and tests use.
func sharedSetForFuzz(tb testing.TB) (*ProfileSet, *weblog.Dataset) {
	tb.Helper()
	sharedSetOnce.Do(func() {
		sharedSetVal, sharedTestDS, sharedSetErr = Train(smallDataset, testConfig())
	})
	if sharedSetErr != nil {
		tb.Fatal(sharedSetErr)
	}
	return sharedSetVal, sharedTestDS
}

// FuzzDeviceStateBlob: the two state decoders — the per-device StateStore
// blob (DecodeDeviceState, the admit/rehydrate path) and the shard-export
// envelope (decodeShardState, the StageImport path) — must error on
// malformed input, never panic; any blob that decodes must also survive
// RestoreIdentifier's structural validation (error or identifier, never a
// panic) against a real trained profile set. The current format is
// canonical: whatever decodes from it re-encodes to the same bytes. A
// blob in an earlier format (version 2, or JSON) re-encodes to a
// current-format blob that decodes to an equal state.
func FuzzDeviceStateBlob(f *testing.F) {
	for _, seed := range stateBlobSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		set, _ := sharedSetForFuzz(t)
		vocab := set.Vocabulary
		if st, err := DecodeDeviceState(data, vocab); err == nil {
			enc := EncodeDeviceState(st)
			if data[0] == stateVersion && !bytes.Equal(enc, data) {
				t.Fatalf("decoded blob re-encodes differently:\n got %x\nwant %x", enc, data)
			}
			again, err := DecodeDeviceState(enc, vocab)
			if err != nil {
				t.Fatalf("re-encoded state does not decode: %v", err)
			}
			if data[0] == txStateVersion && !reflect.DeepEqual(again, st) {
				t.Fatalf("version-%d state changed through a re-encode:\n got %+v\nwant %+v", txStateVersion, again, st)
			}
			id, rerr := RestoreIdentifier(set, st.Identifier)
			if rerr == nil {
				// A restored identifier must be immediately usable.
				id.Flush()
			}
		}
		if states, err := decodeShardState(data, vocab); err == nil {
			if enc := encodeShardState(states); !bytes.Equal(enc, data) {
				t.Fatalf("decoded shard export re-encodes differently:\n got %x\nwant %x", enc, data)
			}
			for _, st := range states {
				if id, rerr := RestoreIdentifier(set, st.Identifier); rerr == nil {
					id.Flush()
				}
			}
		}
	})
}

// TestRegenerateStateFuzzCorpus rewrites testdata/fuzz/FuzzDeviceStateBlob
// from stateBlobSeeds when WTP_REGEN_CORPUS=1; otherwise it verifies the
// checked-in corpus exists. The seeds are byte-stable, so CI regenerates
// them and fails when the checked-in corpus drifts.
func TestRegenerateStateFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDeviceStateBlob")
	seeds := stateBlobSeeds(t)
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
