package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"webtxprofile/internal/weblog"
)

// stateBlobSeeds are the checked-in seeds for FuzzDeviceStateBlob: real
// encoded state (a device mid-stream on the shared trained set, both the
// per-device blob and a whole shard export), hand-damaged variants, and
// plain garbage. Kept in code so the testdata corpus is reproducible
// (see TestRegenerateStateFuzzCorpus).
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
	blob, err := encodeDeviceState(deviceStateLocked(device, sh.devices[device]))
	sh.mu.Unlock()
	if err != nil {
		tb.Fatal(err)
	}
	export, _, err := mon.ExportStaged("fuzz", []string{device})
	if err != nil {
		tb.Fatal(err)
	}
	truncated := append([]byte(nil), blob[:len(blob)/2]...)
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/3] ^= 0xff
	return [][]byte{
		blob,
		export,
		truncated,
		flipped,
		[]byte(`{}`),
		[]byte(`{"version":99,"device":"x"}`),
		[]byte(`{"version":1,"device":"x","identifier":{"host":"y"}}`),
		[]byte(`{"version":1}`),
		[]byte("not json at all"),
		{0x1f, 0x8b, 0x08, 0x00}, // gzip magic, truncated body
		{},
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
// blob (decodeDeviceState, the admit/rehydrate path) and the shard-export
// envelope (decodeShardState, the StageImport path) — must error on
// malformed input, never panic; and any blob that decodes must also
// survive RestoreIdentifier's structural validation (error or identifier,
// never a panic) against a real trained profile set.
func FuzzDeviceStateBlob(f *testing.F) {
	for _, seed := range stateBlobSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if st, err := decodeDeviceState(data); err == nil {
			set, _ := sharedSetForFuzz(t)
			id, rerr := RestoreIdentifier(set, st.Identifier)
			if rerr == nil {
				// A restored identifier must be immediately usable.
				id.Flush()
			}
		}
		if states, err := decodeShardState(data); err == nil {
			set, _ := sharedSetForFuzz(t)
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
// checked-in corpus exists.
//
// Note the regenerated real-state seeds are not byte-stable across runs
// (timestamps and training are deterministic, but JSON map order is not);
// regeneration refreshes coverage, it does not produce a canonical file.
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
