package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"webtxprofile/internal/weblog"
)

// runToy runs workload p at toy scale: a toy corpus, 200 devices and
// one-second phases.
func runToy(t *testing.T, p params, trace bool, setup func(*params, *inputs, *recorder, int64) (system, float64, error)) *result {
	t.Helper()
	res, err := run(p.toy(), options{
		seed: 7, seconds: 1, trace: trace,
		traceOut: filepath.Join(t.TempDir(), "trace.json"),
		setup:    setup,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("correctness gate failed: %v", res.Mismatches)
	}
	if res.Failed != 0 {
		t.Fatalf("%d failed operations: %v", res.Failed, res.Failures)
	}
	return res
}

// TestWorkloadsSmoke runs every workload untraced and traced and checks
// the contract: each metric BENCHMARK.json names is emitted with its
// unit, the gate passes, and the summary line parses.
func TestWorkloadsSmoke(t *testing.T) {
	def, err := loadBenchDef(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range workloads {
		names = append(names, p.Name)
		for _, trace := range []bool{false, true} {
			res := runToy(t, p, trace, nil)
			want := def.EndToEnd
			if trace {
				want = def.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", p.Name, trace, len(res.Metrics), len(want))
			}
			for _, b := range want {
				got, ok := res.Metrics[b.Name]
				if !ok || got.Unit != b.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", p.Name, trace, b.Name, got, b.Unit)
				}
				if !trace && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", p.Name, b.Name)
				}
			}
			var out, errOut bytes.Buffer
			printResult(&out, &errOut, res)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var sum map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || len(sum) != 4 {
				t.Errorf("%s: last line %q is not the 4-key summary: %v", p.Name, lines[len(lines)-1], err)
			}
			if len(lines) != len(want)+2 {
				t.Errorf("%s: %d output lines, want header + %d metrics + summary", p.Name, len(lines), len(want))
			}
		}
	}
	var declared struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(b, &declared)
	}
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range declared.Workloads {
		got = append(got, w.Name)
	}
	if strings.Join(got, ",") != strings.Join(names, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, names)
	}
}

// stallingSystem is a toy population system whose feed stalls once, for
// 200 ms, when stream position at is reached.
type stallingSystem struct {
	*monitorSystem
	at      int
	stalled bool
}

func (s *stallingSystem) ingest() (sender, error) { return newDirectSender(s.in, s.rec, s.feed), nil }

func (s *stallingSystem) feed(txs []weblog.Transaction) error {
	if !s.stalled && int(s.rec.processed.Load()) >= s.at {
		s.stalled = true
		time.Sleep(200 * time.Millisecond)
	}
	return s.monitorSystem.feed(txs)
}

// TestCoordinatedOmission checks that latency counts from each
// transaction's scheduled send time: one 200 ms stall must show in the
// open loop's whole p99 (the transactions queued behind it wait for it)
// and in the generator's lag (it could not send while the feed it called
// was stalled). The windowed p99_ms is built to shrug off one stall.
func TestCoordinatedOmission(t *testing.T) {
	p, err := workloadByName("population-2k")
	if err != nil {
		t.Fatal(err)
	}
	// The middle of the first open-loop half (runToy runs 1 s open loops).
	toy := p.toy()
	mid := int(toy.Rate*toy.WarmupS) + toy.SatCount/satSegments + int(toy.Rate)/4
	res := runToy(t, p, true, func(p *params, in *inputs, rec *recorder, seed int64) (system, float64, error) {
		sys, build, err := setupSystem(p, in, rec, seed)
		if err != nil {
			return nil, 0, err
		}
		return &stallingSystem{monitorSystem: sys.(*monitorSystem), at: mid}, build, nil
	})
	if p99 := res.Metrics["loadgen.p99_all_ms"].Value; p99 < 200 {
		t.Errorf("loadgen.p99_all_ms = %.1f after a 200 ms stall, want >= 200", p99)
	}
	if lag := res.Metrics["loadgen.lag_p99_ms"].Value; lag < 100 {
		t.Errorf("loadgen.lag_p99_ms = %.1f after a 200 ms stall, want >= 100", lag)
	}
}

// TestLinesMatchMarshalLine pins the generator's pre-rendered log lines
// to weblog's own rendering of the same transactions.
func TestLinesMatchMarshalLine(t *testing.T) {
	p, err := workloadByName("fleet-lines")
	if err != nil {
		t.Fatal(err)
	}
	toy := p.toy()
	in, err := buildInputs(&toy, 3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for k := range in.stream {
		got, want := string(in.appendLine(nil, k)), in.tx(k).MarshalLine()+"\n"
		if got != want {
			t.Fatalf("stream %d: line %q, MarshalLine %q", k, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 = quartiles([]float64{16, 1, 4, 2, 8}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestCompare runs compare mode on fixture result files: a real
// regression, a real improvement, a shift inside the noise, a metric the
// parent cannot resolve, and per-layer metrics that get no verdict.
func TestCompare(t *testing.T) {
	def, err := loadBenchDef(filepath.Join("testdata", "compare", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	parent, err := loadResults(filepath.Join("testdata", "compare", "parent"))
	if err != nil {
		t.Fatal(err)
	}
	change, err := loadResults(filepath.Join("testdata", "compare", "change", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	for _, r := range compareResults(def, parent, change) {
		got[r.Workload+"/"+r.Metric] = r.Verdict
	}
	want := map[string]string{
		"w/p99_ms":   verdictRegression, // 20% slower, outside the parent's quartiles
		"w/max_tx_s": verdictImproved,   // 20% more throughput
		"w/p50_ms":   verdictOK,         // 5% slower: inside the 10% bound
		"w/setup_s":  verdictUnresolved, // the parent's own spread exceeds the bound
		"w/heap_mb":  verdictImproved,   // noisy parent, but every change run is lower
		"w/svm.x_ns": verdictInfo,       // per-layer: no bound
		"v/p99_ms":   verdictOK,         // within the bound
	}
	if len(got) != len(want) {
		t.Errorf("%d comparisons, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: verdict %q, want %q", k, got[k], v)
		}
	}
	var out bytes.Buffer
	if code := printComparison(&out, compareResults(def, parent, change)); code != 1 {
		t.Errorf("compare exit code %d with a regression, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "1 regression(s)") {
		t.Errorf("compare output does not count the regression:\n%s", out.String())
	}
}
