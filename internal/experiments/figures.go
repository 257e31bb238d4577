package experiments

import (
	"fmt"
	"time"

	"webtxprofile/internal/eval"
	"webtxprofile/internal/features"
	"webtxprofile/internal/sparse"
	"webtxprofile/internal/stats"
	"webtxprofile/internal/svm"
	"webtxprofile/internal/synth"
	"webtxprofile/internal/weblog"
)

// Figure1 reproduces Fig. 1: the novelty ratio (mean and variance across
// users) over observation weeks for the three largest feature categories.
func Figure1(e *Env) (*Table, error) {
	fields := []struct {
		name string
		sel  eval.FieldSelector
	}{
		{"category", eval.SelectCategory},
		{"application_type", eval.SelectAppType},
		{"media_type", eval.SelectMediaSubType},
	}
	t := &Table{
		ID:     "fig1",
		Title:  "Novelty ratio per feature category over observation weeks (mean ± variance across users)",
		Header: []string{"week"},
	}
	for _, f := range fields {
		t.Header = append(t.Header, f.name+" mean", f.name+" var")
	}
	cols := make([][]eval.NoveltyPoint, len(fields))
	for i, f := range fields {
		pts, err := eval.FieldNovelty(e.Full, e.Users, e.Scale.NoveltyWeeks, e.Scale.Synth.Start, f.sel)
		if err != nil {
			return nil, err
		}
		cols[i] = pts
	}
	for wi, w := range e.Scale.NoveltyWeeks {
		row := []string{fmt.Sprint(w)}
		for i := range fields {
			row = append(row,
				fmt.Sprintf("%.3f", cols[i][wi].Mean),
				fmt.Sprintf("%.4f", cols[i][wi].Variance))
		}
		t.Rows = append(t.Rows, row)
	}
	// The paper's per-user coverage counts accompany this figure
	// (Sect. IV-B).
	var catCov, subCov, appCov float64
	for _, u := range e.Users {
		txs := e.Full.UserTransactions(u)
		catCov += float64(eval.CoverageCount(txs, eval.SelectCategory))
		subCov += float64(eval.CoverageCount(txs, eval.SelectMediaSubType))
		appCov += float64(eval.CoverageCount(txs, eval.SelectAppType))
	}
	n := float64(len(e.Users))
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean per-user coverage: %.2f categories, %.2f sub-types, %.2f application types (paper: 17.84, 17.12, 19.08)",
			catCov/n, subCov/n, appCov/n),
		"paper shape: ~25%% media-type novelty after week 1, <10%% for categories/apps, all falling to ~5%%")
	return t, nil
}

// Figure2 reproduces Fig. 2: the novelty ratio of transaction windows
// (strict vector equality) over observation weeks.
func Figure2(e *Env) (*Table, error) {
	pts, err := eval.WindowNovelty(e.Full, e.Users, e.Scale.NoveltyWeeks,
		e.Scale.Synth.Start, e.Vocab, RetainedWindow())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig2",
		Title:  "Novelty ratio of transaction windows over observation weeks (D=60s, S=30s)",
		Header: []string{"week", "mean", "variance"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.Week), fmt.Sprintf("%.3f", p.Mean), fmt.Sprintf("%.4f", p.Variance),
		})
	}
	t.Notes = append(t.Notes, "paper shape: ~25%% window novelty after one week of observation, declining with the epoch")
	return t, nil
}

// Figure3 reproduces Fig. 3: three users take turns on one device for 100
// minutes; every OC-SVM model classifies each 1-minute window. Rows are
// models that accepted at least one window; the timeline marks accepted
// windows and the actual user.
func Figure3(e *Env) (*Table, error) {
	models, err := e.Models(svm.OCSVM)
	if err != nil {
		return nil, err
	}
	cast, txs, err := figure3Scenario(e)
	if err != nil {
		return nil, err
	}
	windows, err := features.Compose(e.Vocab, RetainedWindow(), txs, figure3Device)
	if err != nil {
		return nil, err
	}
	tl := eval.Timeline(models, windows)
	st := eval.Summarize(tl)

	t := &Table{
		ID:     "fig3",
		Title:  "User identification on one device over 100 minutes (rows: models accepting >= 1 window; '#' accepted, '.' not; header row: actual user index)",
		Header: []string{"model", "timeline (1 column per window)"},
	}
	actual := make([]byte, len(tl))
	for i, pt := range tl {
		idx := '?'
		for ci, u := range cast {
			if pt.ActualUser == u {
				idx = rune('1' + ci)
			}
		}
		actual[i] = byte(idx)
	}
	t.Rows = append(t.Rows, []string{"actual", string(actual)})
	for _, u := range e.Users {
		line := make([]byte, len(tl))
		any := false
		for i, pt := range tl {
			line[i] = '.'
			for _, a := range pt.Accepted {
				if a == u {
					line[i] = '#'
					any = true
				}
			}
		}
		if any {
			t.Rows = append(t.Rows, []string{u, string(line)})
		}
	}
	id1, _, ok := eval.IdentifyConsecutive(tl, 5)
	t.Notes = append(t.Notes,
		fmt.Sprintf("cast: %s (0-40min), %s (40-70min), %s (70-100min)", cast[0], cast[1], cast[2]),
		fmt.Sprintf("windows: %d, true-user acceptance %d/%d, exclusive-correct %d, mean accepting models/window %.2f",
			st.Windows, st.ActualAccepted, st.Windows, st.ExclusiveCorrect, st.MeanAccepting),
		fmt.Sprintf("consecutive-5 identification: %q (ok=%v); paper: 7 of 25 models accepted windows, true user holds the longest runs", id1, ok))
	return t, nil
}

// figure3Device is the device the Fig. 3 scenario runs on.
const figure3Device = "10.99.0.1"

// figure3Scenario generates the Fig. 3 scenario and returns its cast and
// the device's transactions in time order.
func figure3Scenario(e *Env) ([]string, []weblog.Transaction, error) {
	if len(e.Users) < 3 {
		return nil, nil, fmt.Errorf("experiments: need >= 3 users for fig3")
	}
	// Mirror the paper's cast: a confusable-cluster user first, then two
	// users from elsewhere in the population.
	cast := []string{e.Users[0], e.Users[len(e.Users)/2], e.Users[len(e.Users)-1]}
	scenarioStart := e.Scale.Synth.Start.Add(time.Duration(e.Scale.Synth.Weeks)*7*24*time.Hour + 9*time.Hour)
	scenario, err := e.Gen.GenerateDeviceScenario(figure3Device, scenarioStart, []synth.Segment{
		{UserID: cast[0], Offset: 0, Length: 40 * time.Minute},
		{UserID: cast[1], Offset: 40 * time.Minute, Length: 30 * time.Minute},
		{UserID: cast[2], Offset: 70 * time.Minute, Length: 30 * time.Minute},
	})
	if err != nil {
		return nil, nil, err
	}
	return cast, scenario.Transactions, nil
}

// Figure4 reproduces Fig. 4: the distribution of single-window prediction
// time for OC-SVM vs SVDD (box-and-whiskers five-number summaries).
func Figure4(e *Env) (*Table, error) {
	testWs, err := e.TestWindows()
	if err != nil {
		return nil, err
	}
	// Probe windows: a mix across users.
	var probes []sparse.Vector
	for _, u := range e.Users {
		ws := testWs[u]
		if len(ws) > 40 {
			ws = ws[:40]
		}
		probes = append(probes, features.Vectors(ws)...)
	}
	if len(probes) == 0 {
		return nil, fmt.Errorf("experiments: no probe windows")
	}
	t := &Table{
		ID:     "fig4",
		Title:  "Prediction time per window (µs)",
		Header: []string{"algorithm", "min", "q1", "median", "q3", "max", "SVs(median model)"},
	}
	for _, algo := range []svm.Algorithm{svm.OCSVM, svm.SVDD} {
		models, err := e.Models(algo)
		if err != nil {
			return nil, err
		}
		m := models[e.Users[len(e.Users)/2]]
		samples := make([]float64, 0, len(probes))
		for _, x := range probes {
			start := time.Now()
			_ = m.Decision(x)
			samples = append(samples, float64(time.Since(start).Nanoseconds())/1e3)
		}
		five, err := stats.Summarize(samples)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			algo.String(),
			fmt.Sprintf("%.2f", five.Min), fmt.Sprintf("%.2f", five.Q1),
			fmt.Sprintf("%.2f", five.Median), fmt.Sprintf("%.2f", five.Q3),
			fmt.Sprintf("%.2f", five.Max), fmt.Sprint(m.NumSVs()),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: both algorithms decide in < 100µs; SVDD decides faster than OC-SVM (simpler surface, fewer support vectors at the optimized parameters)")
	return t, nil
}

// Figure5 reproduces Fig. 5: feature extraction + window composition time
// as a function of the transaction count in a 1-minute window, with a
// linear fit. The paper sweeps from the observed median (54) to the
// maximum (6,048).
func Figure5(e *Env) (*Table, error) {
	countsToTest := []int{54, 250, 500, 1000, 2000, 4000, 6048}
	// Build a dense 1-minute burst per count from one user's scenario
	// traffic.
	u := e.Users[0]
	const device = "10.99.0.2"
	base := e.Scale.Synth.Start.Add(time.Duration(e.Scale.Synth.Weeks) * 7 * 24 * time.Hour)
	scenario, err := e.Gen.GenerateDeviceScenario(device, base, []synth.Segment{
		{UserID: u, Offset: 0, Length: 10 * time.Minute},
	})
	if err != nil {
		return nil, err
	}
	pool := scenario.Transactions
	if len(pool) == 0 {
		return nil, fmt.Errorf("experiments: empty scenario pool")
	}
	t := &Table{
		ID:     "fig5",
		Title:  "Feature vector composition time vs transactions per 1-minute window",
		Header: []string{"transactions", "time (ms)"},
	}
	var xs, ys []float64
	for _, n := range countsToTest {
		txs := synthesizeWindow(pool, n, base)
		// Warm-up run (allocator, caches), then the median of several
		// timed repetitions — robust against scheduler noise on busy
		// machines.
		if _, err := features.Compose(e.Vocab, RetainedWindow(), txs, u); err != nil {
			return nil, err
		}
		const reps = 9
		samples := make([]float64, 0, reps)
		for r := 0; r < reps; r++ {
			start := time.Now()
			ws, err := features.Compose(e.Vocab, RetainedWindow(), txs, u)
			if err != nil {
				return nil, err
			}
			if len(ws) == 0 {
				return nil, fmt.Errorf("experiments: no window composed for n=%d", n)
			}
			samples = append(samples, float64(time.Since(start).Nanoseconds())/1e6)
		}
		ms := stats.Quantile(samples, 0.5)
		xs = append(xs, float64(n))
		ys = append(ys, ms)
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprintf("%.3f", ms)})
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("linear fit: time(ms) = %.5f·n + %.3f, R² = %.4f", fit.Slope, fit.Intercept, fit.R2),
		"paper shape: linear growth, < 1s even for the largest window (6,048 transactions)")
	return t, nil
}

// synthesizeWindow packs exactly n transactions into one minute starting
// at t0, reusing the pool cyclically with evenly spread timestamps.
func synthesizeWindow(pool []weblog.Transaction, n int, t0 time.Time) []weblog.Transaction {
	out := make([]weblog.Transaction, n)
	step := 60 * float64(time.Second) / float64(n)
	for i := 0; i < n; i++ {
		tx := pool[i%len(pool)]
		tx.Timestamp = t0.Add(time.Duration(float64(i) * step))
		out[i] = tx
	}
	return out
}
