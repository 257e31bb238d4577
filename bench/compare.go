package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"text/tabwriter"
)

// benchDef is the part of BENCHMARK.json compare needs: each metric's
// direction and, for end-to-end metrics, its regression bound as a share
// of the parent's median.
type benchDef struct {
	EndToEnd []metricBound `json:"end_to_end"`
	PerLayer []metricBound `json:"per_layer"`
}

type metricBound struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved"
	verdictInfo       = "-" // per-layer metric: no bound, no verdict
)

// comparison is one workload × metric row.
type comparison struct {
	Workload, Metric, Unit string
	Parent, Change         sideStats
	Verdict                string
}

type sideStats struct {
	N                int
	Median, Q1, Q3   float64
	Spread           float64 // (Q3 − Q1) / |median|
	lowest, greatest float64
}

func newSide(xs []float64) sideStats {
	s := sideStats{N: len(xs), Median: median(xs), lowest: slices.Min(xs), greatest: slices.Max(xs)}
	s.Q1, s.Q3 = quartiles(xs)
	s.Spread = ratio(s.Q3-s.Q1, math.Abs(s.Median))
	return s
}

// judge applies the noise-aware gate to one metric. A change regresses
// only when its median is worse than the parent's by more than the bound
// and also lies outside the parent's quartile range; it improves under
// the mirrored rule. When the parent's own spread exceeds the bound the
// metric is unresolved, unless every change run beats every parent run.
func judge(b metricBound, parent, change sideStats) string {
	if b.Bound == nil {
		return verdictInfo
	}
	bound := *b.Bound
	lower := b.Better == "lower"
	if parent.Spread > bound {
		if (lower && change.greatest < parent.lowest) || (!lower && change.lowest > parent.greatest) {
			return verdictImproved
		}
		return verdictUnresolved
	}
	outside := change.Median < parent.Q1 || change.Median > parent.Q3
	limit := math.Abs(parent.Median) * bound
	worse, improved := change.Median > parent.Median+limit, change.Median < parent.Median-limit
	if !lower {
		worse, improved = change.Median < parent.Median-limit, change.Median > parent.Median+limit
	}
	switch {
	case worse && outside:
		return verdictRegression
	case improved && outside:
		return verdictImproved
	}
	return verdictOK
}

// compareResults lines up every workload × metric present on both sides.
func compareResults(def benchDef, parent, change []*result) []comparison {
	bounds := make(map[string]metricBound)
	var order []string
	for _, b := range append(append([]metricBound(nil), def.EndToEnd...), def.PerLayer...) {
		bounds[b.Name] = b
		order = append(order, b.Name)
	}
	group := func(rs []*result) map[string]map[string][]float64 {
		g := make(map[string]map[string][]float64)
		for _, r := range rs {
			if g[r.Workload] == nil {
				g[r.Workload] = make(map[string][]float64)
			}
			for name, m := range r.Metrics {
				g[r.Workload][name] = append(g[r.Workload][name], m.Value)
			}
		}
		return g
	}
	pg, cg := group(parent), group(change)
	workloads := make([]string, 0, len(pg))
	for w := range pg {
		if cg[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	var rows []comparison
	for _, w := range workloads {
		for _, name := range order {
			pv, cv := pg[w][name], cg[w][name]
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			b := bounds[name]
			row := comparison{Workload: w, Metric: name, Unit: b.Unit, Parent: newSide(pv), Change: newSide(cv)}
			row.Verdict = judge(b, row.Parent, row.Change)
			rows = append(rows, row)
		}
	}
	return rows
}

// loadResults reads result files named by a directory (every *.json in
// it) or a glob pattern.
func loadResults(spec string) ([]*result, error) {
	pattern := spec
	if st, err := os.Stat(spec); err == nil && st.IsDir() {
		pattern = filepath.Join(spec, "*.json")
	}
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files match %s", spec)
	}
	var out []*result
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" || r.Metrics == nil {
			return nil, fmt.Errorf("%s: not a result file (written with -out)", f)
		}
		out = append(out, &r)
	}
	return out, nil
}

func loadBenchDef(path string) (benchDef, error) {
	var def benchDef
	b, err := os.ReadFile(path)
	if err != nil {
		return def, err
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return def, fmt.Errorf("%s: %w", path, err)
	}
	return def, nil
}

// compareMain prints the comparison table and exits 1 when any metric
// regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	defPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: bench compare [-bench BENCHMARK.json] <parent dir or glob> <change dir or glob>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	def, err := loadBenchDef(*defPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	parent, err := loadResults(fs.Arg(0))
	if err == nil {
		var change []*result
		if change, err = loadResults(fs.Arg(1)); err == nil {
			return printComparison(stdout, compareResults(def, parent, change))
		}
	}
	fmt.Fprintln(stderr, "bench compare:", err)
	return 2
}

func printComparison(w io.Writer, rows []comparison) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\tparent spread\tverdict")
	regressions := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] n=%d\t%.4g [%.4g, %.4g] n=%d\t%+.1f%%\t%.1f%%\t%s\n",
			r.Workload, r.Metric, r.Unit,
			r.Parent.Median, r.Parent.Q1, r.Parent.Q3, r.Parent.N,
			r.Change.Median, r.Change.Q1, r.Change.Q3, r.Change.N,
			100*ratio(r.Change.Median-r.Parent.Median, math.Abs(r.Parent.Median)),
			100*r.Parent.Spread, r.Verdict)
		if r.Verdict == verdictRegression {
			regressions++
		}
	}
	tw.Flush()
	if regressions > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", regressions)
		return 1
	}
	return 0
}
