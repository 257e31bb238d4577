package core

import "testing"

// runMonitorAlerts replays txs through a monitor built with cfg and
// returns the per-device alert signatures (stream fully fed, flushed,
// closed).
func runMonitorAlerts(t *testing.T, cfg MonitorConfig, k int) map[string][]string {
	t.Helper()
	set, ds := sharedSet(t)
	txs, _ := deviceStream(ds, 9, 6000)
	col := newAlertCollector()
	mon, err := NewMonitorWithConfig(set, k, col.callback, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < len(txs); start += 256 {
		end := min(start+256, len(txs))
		if err := mon.FeedBatch(txs[start:end]); err != nil {
			t.Fatal(err)
		}
	}
	mon.Flush()
	mon.Close()
	return col.got
}

// TestMonitorFusedMatchesPreFusedEngine is the Monitor-level acceptance
// property: a monitor scoring through the shared fused index (on the
// engine this CPU resolves to) emits per-device alert sequences
// byte-identical to one scoring through the pre-fused per-model engine
// (the referenceScoring seam routes every window through
// svm.Model.Accept, one walk per model, exactly as before the fused
// index existed).
func TestMonitorFusedMatchesPreFusedEngine(t *testing.T) {
	const k = 2
	ref := runMonitorAlerts(t, MonitorConfig{Shards: 8, referenceScoring: true}, k)
	fused := runMonitorAlerts(t, MonitorConfig{Shards: 8}, k)
	comparePerDevice(t, ref, fused)
}

// TestMonitorScoringEngineAccessors pins the observability accessors the
// daemon logs at startup: a fused monitor reports "fused" and a non-zero
// index footprint; the reference seam reports "per-model".
func TestMonitorScoringEngineAccessors(t *testing.T) {
	set, _ := sharedSet(t)
	col := newAlertCollector()
	mon, err := NewMonitorWithConfig(set, 2, col.callback, MonitorConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if eng := mon.ScoringEngine(); eng != "fused" {
		t.Errorf("ScoringEngine() = %q, want fused", eng)
	}
	if fp := mon.ScoringFootprint(); fp.IndexBytes == 0 {
		t.Errorf("ScoringFootprint() = %+v, want non-zero IndexBytes", fp)
	}
	ref, err := NewMonitorWithConfig(set, 2, col.callback, MonitorConfig{Shards: 2, referenceScoring: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if eng := ref.ScoringEngine(); eng != "per-model" {
		t.Errorf("reference ScoringEngine() = %q, want per-model", eng)
	}
}
