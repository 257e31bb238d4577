// Benchmarks regenerating every table and figure of the paper (Tables
// I–V, Figures 1–5) at a compact scale, plus micro-benchmarks for the
// pipeline stages the paper times (feature composition, Fig. 5; window
// prediction, Fig. 4). Run with:
//
//	go test -bench=. -benchmem .
package webtxprofile_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webtxprofile"
	"webtxprofile/internal/core"
	"webtxprofile/internal/experiments"
	"webtxprofile/internal/features"
	"webtxprofile/internal/grid"
	"webtxprofile/internal/sparse"
	"webtxprofile/internal/svm"
	"webtxprofile/internal/weblog"
)

// benchEnv is the shared experiment environment, built once on first use.
var (
	benchEnvOnce sync.Once
	benchEnvVal  *experiments.Env
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		scale := experiments.SmallScale(1)
		// Compact further so every bench iteration stays sub-second.
		scale.Synth.Users = 8
		scale.Synth.SmallUsers = 2
		scale.Synth.Devices = 6
		scale.Synth.Weeks = 3
		scale.Synth.Services = 200
		scale.Synth.Archetypes = 6
		scale.Synth.ConfusableUsers = 2
		scale.Synth.WeeklyTxMedian = 1200
		scale.Synth.WeeklyTxSigma = 0.4
		scale.NoveltyWeeks = []int{1, 2}
		scale.GridTrainCap = 120
		scale.GridOtherCap = 40
		scale.FinalTrainCap = 200
		scale.EvalCap = 150
		scale.Params = []float64{0.5, 0.1}
		scale.Combos = []features.WindowConfig{
			experiments.RetainedWindow(),
			{Duration: 5 * time.Minute, Shift: time.Minute},
		}
		env, err := experiments.NewEnv(scale)
		if err != nil {
			panic(err)
		}
		benchEnvVal = env
	})
	return benchEnvVal
}

func benchTable(b *testing.B, fn func(*experiments.Env) (*experiments.Table, error)) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Vocabulary regenerates Table I (feature composition).
func BenchmarkTable1Vocabulary(b *testing.B) { benchTable(b, experiments.Table1) }

// BenchmarkFigure1Novelty regenerates Fig. 1 (per-field novelty curves).
func BenchmarkFigure1Novelty(b *testing.B) { benchTable(b, experiments.Figure1) }

// BenchmarkFigure2WindowNovelty regenerates Fig. 2 (window novelty).
func BenchmarkFigure2WindowNovelty(b *testing.B) { benchTable(b, experiments.Figure2) }

// BenchmarkTable2WindowGrid regenerates Table II (the D/S grid search).
func BenchmarkTable2WindowGrid(b *testing.B) { benchTable(b, experiments.Table2) }

// BenchmarkTable3KernelGrid regenerates Table III (kernel × ν/C grid for
// one user).
func BenchmarkTable3KernelGrid(b *testing.B) {
	benchTable(b, func(e *experiments.Env) (*experiments.Table, error) {
		return experiments.Table3(e, "")
	})
}

// BenchmarkTable4Acceptance regenerates Table IV (averaged acceptance
// across window combinations, optimized parameters).
func BenchmarkTable4Acceptance(b *testing.B) { benchTable(b, experiments.Table4) }

// BenchmarkTable5Confusion regenerates Table V (the full confusion
// matrix).
func BenchmarkTable5Confusion(b *testing.B) { benchTable(b, experiments.Table5) }

// BenchmarkFigure3Identification regenerates Fig. 3 (multi-user device
// timeline).
func BenchmarkFigure3Identification(b *testing.B) { benchTable(b, experiments.Figure3) }

// BenchmarkFigure5Composition regenerates Fig. 5 (composition-time
// scaling).
func BenchmarkFigure5Composition(b *testing.B) { benchTable(b, experiments.Figure5) }

// benchModel returns a trained model and probe vectors for the prediction
// benches.
func benchModel(b *testing.B, algo svm.Algorithm) (*svm.Model, []features.Window) {
	b.Helper()
	env := benchEnv(b)
	models, err := env.Models(algo)
	if err != nil {
		b.Fatal(err)
	}
	testWs, err := env.TestWindows()
	if err != nil {
		b.Fatal(err)
	}
	u := env.Users[len(env.Users)/2]
	ws := testWs[u]
	if len(ws) == 0 {
		b.Fatal("no probe windows")
	}
	return models[u], ws
}

// BenchmarkFigure4PredictOCSVM measures single-window OC-SVM decisions —
// the left box of Fig. 4 (paper: < 100µs).
func BenchmarkFigure4PredictOCSVM(b *testing.B) {
	m, ws := benchModel(b, svm.OCSVM)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Decision(ws[i%len(ws)].Vector)
	}
}

// BenchmarkFigure4PredictSVDD measures single-window SVDD decisions — the
// right box of Fig. 4 (paper: faster than OC-SVM).
func BenchmarkFigure4PredictSVDD(b *testing.B) {
	m, ws := benchModel(b, svm.SVDD)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Decision(ws[i%len(ws)].Vector)
	}
}

// BenchmarkAblationFlow regenerates the flow/Markov feature-family
// ablation.
func BenchmarkAblationFlow(b *testing.B) { benchTable(b, experiments.AblationFlow) }

// BenchmarkAblationFeatures regenerates the feature-knockout ablation.
func BenchmarkAblationFeatures(b *testing.B) { benchTable(b, experiments.AblationFeatures) }

// BenchmarkExtensionAlgorithms regenerates the algorithm-family extension
// (OC-SVM vs SVDD vs autoencoder).
func BenchmarkExtensionAlgorithms(b *testing.B) { benchTable(b, experiments.ExtensionAlgorithms) }

// BenchmarkExtensionTrainingEpoch regenerates the training-epoch sweep.
func BenchmarkExtensionTrainingEpoch(b *testing.B) { benchTable(b, experiments.ExtensionTrainingEpoch) }

// BenchmarkExtensionROC regenerates the per-user AUC sweep.
func BenchmarkExtensionROC(b *testing.B) { benchTable(b, experiments.ExtensionROC) }

// BenchmarkExtensionLatency regenerates the time-to-identification table.
func BenchmarkExtensionLatency(b *testing.B) {
	benchTable(b, experiments.ExtensionIdentificationLatency)
}

// BenchmarkExtractTransaction measures single-transaction feature
// extraction (the per-record cost inside Fig. 5's curve).
func BenchmarkExtractTransaction(b *testing.B) {
	env := benchEnv(b)
	txs := env.Train.Transactions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Vocab.Extract(&txs[i%len(txs)])
	}
}

// BenchmarkComposeWindows measures sliding-window composition over one
// user's training epoch at D=60s/S=30s.
func BenchmarkComposeWindows(b *testing.B) {
	env := benchEnv(b)
	txs := env.Train.UserTransactions(env.Users[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := features.Compose(env.Vocab, experiments.RetainedWindow(), txs, "u"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainOCSVM measures fitting one user model (200 windows,
// linear kernel, ν=0.1).
func BenchmarkTrainOCSVM(b *testing.B) {
	benchTrain(b, svm.OCSVM, 0.1)
}

// BenchmarkTrainSVDD measures fitting one SVDD model (200 windows, linear
// kernel, C=0.5).
func BenchmarkTrainSVDD(b *testing.B) {
	benchTrain(b, svm.SVDD, 0.5)
}

func benchTrain(b *testing.B, algo svm.Algorithm, param float64) {
	b.Helper()
	env := benchEnv(b)
	trainWs, err := env.TrainWindows()
	if err != nil {
		b.Fatal(err)
	}
	ws := trainWs[env.Users[0]]
	if len(ws) > 200 {
		ws = ws[:200]
	}
	vecs := features.Vectors(ws)
	cfg := svm.TrainConfig{Kernel: svm.Linear(), CacheMB: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svm.Train(algo, vecs, param, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogParse measures log-line parsing throughput.
func BenchmarkLogParse(b *testing.B) {
	env := benchEnv(b)
	line := env.Train.Transactions[0].MarshalLine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := weblog.ParseLine(line); err != nil {
			b.Fatal(err)
		}
	}
}

// syntheticModel hand-assembles a one-class model with nsv random support
// vectors (window-shaped: ~20 non-zeros over 800 columns) plus probe
// vectors; Validate populates the kernel fast paths (weight vector for
// linear, inverted SV index otherwise).
func syntheticModel(b *testing.B, kernel svm.Kernel, nsv int) (*svm.Model, []sparse.Vector) {
	b.Helper()
	r := rand.New(rand.NewSource(int64(nsv)))
	randVec := func(dim, nnz int) sparse.Vector {
		dense := make(map[int]float64, nnz)
		for len(dense) < nnz {
			dense[r.Intn(dim)] = 0.1 + r.Float64()
		}
		return sparse.New(dense)
	}
	m := &svm.Model{Algo: svm.OCSVM, Kernel: kernel, Param: 0.1, TrainSize: nsv, Rho: 1}
	for i := 0; i < nsv; i++ {
		m.SVs = append(m.SVs, randVec(800, 20))
		m.Coef = append(m.Coef, 0.01+r.Float64())
	}
	if err := m.Validate(); err != nil {
		b.Fatal(err)
	}
	probes := make([]sparse.Vector, 256)
	for i := range probes {
		probes[i] = randVec(800, 20)
	}
	return m, probes
}

// syntheticLinearModel keeps the linear-specific call sites readable.
func syntheticLinearModel(b *testing.B, nsv int) (*svm.Model, []sparse.Vector) {
	return syntheticModel(b, svm.Linear(), nsv)
}

// BenchmarkDecisionLinear compares the precomputed-weight-vector fast path
// against the per-support-vector kernel sum at growing support-vector
// counts — the tentpole speedup: the fast path is O(nnz(x)) regardless of
// the SV count, the generic path O(#SVs × nnz).
func BenchmarkDecisionLinear(b *testing.B) {
	for _, nsv := range []int{50, 200, 800} {
		m, probes := syntheticLinearModel(b, nsv)
		b.Run(fmt.Sprintf("fast/svs=%d", nsv), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Decision(probes[i%len(probes)])
			}
		})
		b.Run(fmt.Sprintf("generic/svs=%d", nsv), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.DecisionGeneric(probes[i%len(probes)])
			}
		})
	}
}

// BenchmarkDecisionKernels compares the inverted-SV-index decision against
// the per-support-vector merge-join sum for the non-linear kernel family —
// the tentpole speedup of the dot-product-factored engine: one pass over
// the window's non-zeros yields all SV dot products, then a scalar loop
// applies the kernel, instead of one sparse-sparse merge join per SV.
func BenchmarkDecisionKernels(b *testing.B) {
	kernels := []struct {
		name string
		k    svm.Kernel
	}{
		{"poly", svm.Poly(1.0/800, 0, 3)},
		{"rbf", svm.RBF(1.0 / 800)},
		{"sigmoid", svm.Sigmoid(1.0/800, 0)},
	}
	for _, kc := range kernels {
		for _, nsv := range []int{50, 500} {
			m, probes := syntheticModel(b, kc.k, nsv)
			b.Run(fmt.Sprintf("%s/indexed/svs=%d", kc.name, nsv), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.Decision(probes[i%len(probes)])
				}
			})
			b.Run(fmt.Sprintf("%s/generic/svs=%d", kc.name, nsv), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.DecisionGeneric(probes[i%len(probes)])
				}
			})
		}
	}
}

// BenchmarkDecisionBatch measures one window scored against a fleet of
// linear models through the batch scorer — the per-window cost of the
// streaming identification loop.
func BenchmarkDecisionBatch(b *testing.B) {
	const fleet = 32
	models := make([]*svm.Model, fleet)
	var probes []sparse.Vector
	for i := range models {
		models[i], probes = syntheticLinearModel(b, 60+i)
	}
	sc := svm.NewScorer(models)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Decisions(probes[i%len(probes)])
	}
}

// monitorBenchSet trains a compact profile set once for the monitor feed
// benchmarks.
var (
	monitorSetOnce sync.Once
	monitorSetVal  *webtxprofile.ProfileSet
	monitorSetErr  error
)

func monitorBenchSet(b *testing.B) *webtxprofile.ProfileSet {
	b.Helper()
	env := benchEnv(b)
	monitorSetOnce.Do(func() {
		monitorSetVal, monitorSetErr = webtxprofile.BuildProfiles(env.Train, webtxprofile.Config{
			MaxTrainWindows: 200,
			Train:           svm.TrainConfig{CacheMB: 16},
		})
	})
	if monitorSetErr != nil {
		b.Fatal(monitorSetErr)
	}
	return monitorSetVal
}

// benchMonitorFeedBatch drives FeedBatch over a synthetic device
// population with the given monitor configuration (transactions/op = 1).
func benchMonitorFeedBatch(b *testing.B, devices int, cfg webtxprofile.MonitorConfig) {
	set := monitorBenchSet(b)
	env := benchEnv(b)
	mon, err := webtxprofile.NewMonitorWithConfig(set, 5, func(webtxprofile.Alert) {}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer mon.Close()
	names := make([]string, devices)
	for i := range names {
		names[i] = fmt.Sprintf("10.%d.%d.%d", i>>16&0xff, i>>8&0xff, i&0xff)
	}
	base := env.Train.Transactions
	start := base[len(base)-1].Timestamp.Add(time.Hour)
	const batchSize = 512
	batch := make([]webtxprofile.Transaction, 0, batchSize)
	b.ResetTimer()
	fed := 0
	for fed < b.N {
		n := min(batchSize, b.N-fed)
		batch = batch[:0]
		for j := 0; j < n; j++ {
			tx := base[(fed+j)%len(base)]
			tx.SourceIP = names[(fed+j)%devices]
			tx.Timestamp = start.Add(time.Duration(fed+j) * 50 * time.Millisecond)
			batch = append(batch, tx)
		}
		if err := mon.FeedBatch(batch); err != nil {
			b.Fatal(err)
		}
		fed += n
	}
	b.StopTimer()
	mon.Flush()
}

// BenchmarkMonitorFeed measures sharded-monitor ingest throughput
// (transactions/op = 1) with the device population the paper's deployment
// scenario implies: every transaction is routed to its device's streaming
// identifier and completed windows are scored against every profile.
func BenchmarkMonitorFeed(b *testing.B) {
	for _, devices := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("devices=%d", devices), func(b *testing.B) {
			benchMonitorFeedBatch(b, devices, webtxprofile.MonitorConfig{Shards: 64})
		})
	}
}

// BenchmarkIngestToMonitor measures the full feed path the daemon runs —
// TCP collector, shared ingest queue, batch delivery, Monitor.FeedBatch —
// at the paper's deployment population (100k devices), comparing the two
// sender encodings (transactions/op = 1).
func BenchmarkIngestToMonitor(b *testing.B) {
	const devices = 100_000
	for _, enc := range []string{"lines", "binary"} {
		b.Run(enc, func(b *testing.B) {
			set := monitorBenchSet(b)
			env := benchEnv(b)
			mon, err := webtxprofile.NewMonitorWithConfig(set, 5, func(webtxprofile.Alert) {},
				webtxprofile.MonitorConfig{Shards: 64})
			if err != nil {
				b.Fatal(err)
			}
			defer mon.Close()
			var fedTo atomic.Int64
			done := make(chan struct{})
			target := int64(b.N)
			srv, err := webtxprofile.ListenCollectorBatch("127.0.0.1:0", func(txs []webtxprofile.Transaction) {
				if err := mon.FeedBatch(txs); err != nil {
					b.Error(err)
				}
				if fedTo.Add(int64(len(txs))) >= target {
					select {
					case <-done:
					default:
						close(done)
					}
				}
			}, webtxprofile.CollectorBatchConfig{})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			dial := webtxprofile.DialCollector
			if enc == "binary" {
				dial = webtxprofile.DialCollectorBinary
			}
			c, err := dial(srv.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()

			names := benchDeviceNames(devices)
			base := env.Train.Transactions
			start := base[len(base)-1].Timestamp.Add(time.Hour)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := base[i%len(base)]
				tx.SourceIP = names[i%devices]
				tx.Timestamp = start.Add(time.Duration(i) * 50 * time.Millisecond)
				if err := c.Send(tx); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.Flush(); err != nil {
				b.Fatal(err)
			}
			c.Close() // conn-end flush marker delivers the final partial batch
			<-done
			b.StopTimer()
			mon.Flush()
		})
	}
}

// BenchmarkMonitorFeedBatchWorkers isolates the FeedBatch worker pool:
// the same batched stream processed by one worker (the previous
// sequential-shard behavior) versus the default pool, which scores windows
// completed within a batch concurrently across shards.
func BenchmarkMonitorFeedBatchWorkers(b *testing.B) {
	const devices = 10_000
	b.Run("workers=1", func(b *testing.B) {
		benchMonitorFeedBatch(b, devices, webtxprofile.MonitorConfig{Shards: 64, BatchWorkers: 1})
	})
	b.Run("workers=max", func(b *testing.B) {
		benchMonitorFeedBatch(b, devices, webtxprofile.MonitorConfig{Shards: 64})
	})
}

// calibratedPopulationModel builds one synthetic RBF OC-SVM profile the
// way per-user training shapes them: the user's windows draw from a
// 60-column "home" vocabulary subset (users revisit the same services),
// the RBF width discriminates between same-user and alien windows, dual
// coefficients cluster near the 1/(νn) training bound, and ρ is placed
// just under the weakest training vector's kernel sum — every training
// support vector accepted, alien windows decisively rejected.
func calibratedPopulationModel(tb testing.TB, r *rand.Rand, dim int) *svm.Model {
	home := r.Perm(dim)[:min(60, dim)]
	m := &svm.Model{Algo: svm.OCSVM, Kernel: svm.RBF(0.3), Param: 0.1, TrainSize: 50}
	for s := 0; s < 50; s++ {
		dense := make(map[int]float64, 20)
		for len(dense) < 20 {
			dense[home[r.Intn(len(home))]] = 0.1 + r.Float64()
		}
		m.SVs = append(m.SVs, sparse.New(dense))
		m.Coef = append(m.Coef, 0.4+0.2*r.Float64())
	}
	if err := m.Validate(); err != nil {
		tb.Fatal(err)
	}
	// With ρ = 0, Decision(x) is the raw kernel sum Σαᵢk(xᵢ,x).
	minS := math.Inf(1)
	for _, sv := range m.SVs {
		if d := m.Decision(sv); d < minS {
			minS = d
		}
	}
	m.Rho = 0.9 * minS
	return m
}

// benchRandVec generates a window-like sparse vector for the population
// fixtures.
func benchRandVec(r *rand.Rand, dim, nnz int) sparse.Vector {
	dense := make(map[int]float64, nnz)
	for len(dense) < nnz {
		dense[r.Intn(dim)] = 0.1 + r.Float64()
	}
	return sparse.New(dense)
}

// populationModels builds U calibrated profiles over 800 columns plus
// probe windows. Every 8th probe is a copy of some model's support
// vector, so the accept/exact-kernel-loop path is exercised alongside
// the screened rejections that dominate multi-user scoring.
func populationModels(b testing.TB, u int) ([]*svm.Model, []sparse.Vector) {
	b.Helper()
	r := rand.New(rand.NewSource(int64(u)*31 + 7))
	models := make([]*svm.Model, u)
	for i := range models {
		models[i] = calibratedPopulationModel(b, r, 800)
	}
	probes := make([]sparse.Vector, 256)
	for i := range probes {
		if i%8 == 0 {
			m := models[r.Intn(u)]
			probes[i] = m.SVs[r.Intn(len(m.SVs))]
		} else {
			probes[i] = benchRandVec(r, 800, 20)
		}
	}
	return models, probes
}

// permissivePopulation is populationModels with every step-th profile
// made permissive (ρ shrunk a millionfold, so the pre-accumulate screen
// can never reject it; step 0: none) — the knob of the survivor sweep —
// and its own probes: 40-non-zero windows, whose norm keeps the screen
// rejecting nearly every strict profile, so the permissive ones set the
// survivor count.
func permissivePopulation(b testing.TB, u, step int) ([]*svm.Model, []sparse.Vector) {
	models, _ := populationModels(b, u)
	for i, m := range models {
		if step > 0 && i%step == 0 {
			m.Rho *= 1e-6
		}
	}
	r := rand.New(rand.NewSource(int64(u)*13 + 5))
	probes := make([]sparse.Vector, 256)
	for i := range probes {
		probes[i] = benchRandVec(r, 800, 40)
	}
	return models, probes
}

// BenchmarkPopulationDecisions is the PR 7 headline: one window scored
// against U user models, comparing the per-model-index baseline
// (DecisionBatch: each model re-walks the window through its own inverted
// index) against the fused population index (one shared postings pass plus
// decision screening) in both precision modes. decisions/sec is the
// reported capacity metric — the paper's identification loop runs exactly
// this evaluation per completed window.
//
// The survivors sub-benchmarks sweep the share of a 2k population that
// survives the pre-accumulate screen (every step-th profile permissive;
// step 0: none) and report survivors/op: AcceptMask scores the survivors
// one by one below a crossover share of the index's support vectors and
// takes the fused pass above it, and the sweep is where that crossover
// was read off.
func BenchmarkPopulationDecisions(b *testing.B) {
	for _, step := range []int{0, 256, 128, 64, 32, 16, 8, 4} {
		const u = 2_000
		b.Run(fmt.Sprintf("survivors/step=%d/models=%d", step, u), func(b *testing.B) {
			models, probes := permissivePopulation(b, u, step)
			sc := svm.NewScorer(models)
			before := svm.ReadKernelStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.AcceptMask(probes[i%len(probes)])
			}
			b.ReportMetric(float64(u)*float64(b.N)/b.Elapsed().Seconds(), "decisions/sec")
			st := svm.ReadKernelStats().Sub(before)
			b.ReportMetric(float64(u)-float64(st.PreScreened)/float64(b.N), "survivors/op")
		})
	}
	for _, u := range []int{100, 1_000, 10_000} {
		models, probes := populationModels(b, u)
		rate := func(b *testing.B) {
			b.ReportMetric(float64(u)*float64(b.N)/b.Elapsed().Seconds(), "decisions/sec")
		}
		b.Run(fmt.Sprintf("baseline/models=%d", u), func(b *testing.B) {
			var out []float64
			for i := 0; i < b.N; i++ {
				out = svm.DecisionBatch(models, probes[i%len(probes)], out[:0])
			}
			rate(b)
		})
		b.Run(fmt.Sprintf("fused/models=%d", u), func(b *testing.B) {
			sc := svm.NewScorer(models)
			before := svm.ReadKernelStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.AcceptMask(probes[i%len(probes)])
			}
			rate(b)
			st := svm.ReadKernelStats().Sub(before)
			b.ReportMetric(float64(st.ScreenedModels)/float64(b.N), "screened/op")
		})
		b.Run(fmt.Sprintf("fused-float32/models=%d", u), func(b *testing.B) {
			sc := svm.NewFusedIndex(models, svm.FusedConfig{Float32: true}).NewScorer()
			before := svm.ReadKernelStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.AcceptMask(probes[i%len(probes)])
			}
			rate(b)
			st := svm.ReadKernelStats().Sub(before)
			b.ReportMetric(float64(st.ScreenedModels)/float64(b.N), "screened/op")
		})
		// The portable engine on the same index layout: the A/B column for
		// the vectorized kernels (identical decisions; see -score-portable).
		b.Run(fmt.Sprintf("fused-portable/models=%d", u), func(b *testing.B) {
			sc := svm.NewFusedIndex(models, svm.FusedConfig{Kernels: svm.KernelsPortable}).NewScorer()
			before := svm.ReadKernelStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.AcceptMask(probes[i%len(probes)])
			}
			rate(b)
			st := svm.ReadKernelStats().Sub(before)
			b.ReportMetric(float64(st.ScreenedModels)/float64(b.N), "screened/op")
		})
	}
}

// populationProfileSet grafts U synthetic profiles onto the bench set's
// real vocabulary and window configuration, so a Monitor over an
// arbitrarily large population still extracts features from the genuine
// taxonomy.
func populationProfileSet(b *testing.B, u int) *webtxprofile.ProfileSet {
	b.Helper()
	base := monitorBenchSet(b)
	dim := base.Vocabulary.Size()
	r := rand.New(rand.NewSource(int64(u)*17 + 3))
	set := &webtxprofile.ProfileSet{
		Vocabulary: base.Vocabulary,
		Window:     base.Window,
		Algorithm:  svm.OCSVM,
		Profiles:   make(map[string]*webtxprofile.Profile, u),
	}
	for i := 0; i < u; i++ {
		id := fmt.Sprintf("synth-user-%05d", i)
		set.Profiles[id] = &webtxprofile.Profile{
			UserID: id, Model: calibratedPopulationModel(b, r, dim), TrainWindows: 50,
		}
	}
	return set
}

// BenchmarkMonitorFeedPopulation measures the monitor end of the fused
// engine at the paper's deployment population — 100k tracked devices —
// as the enrolled-profile count grows. Every device is admitted in an
// untimed warm-up lap; each timed transaction then completes exactly one
// window (the per-device gap exceeds the window span), so ops measure the
// steady-state feed-extract-score path and decisions/sec ≈ U × windows/sec.
func BenchmarkMonitorFeedPopulation(b *testing.B) {
	const devices = 100_000
	env := benchEnv(b)
	names := benchDeviceNames(devices)
	for _, u := range []int{100, 1_000, 10_000} {
		b.Run(fmt.Sprintf("profiles=%d", u), func(b *testing.B) {
			set := populationProfileSet(b, u)
			mon, err := webtxprofile.NewMonitorWithConfig(set, 5, func(webtxprofile.Alert) {},
				webtxprofile.MonitorConfig{Shards: 16})
			if err != nil {
				b.Fatal(err)
			}
			defer mon.Close()
			base := env.Train.Transactions
			start := base[len(base)-1].Timestamp.Add(time.Hour)
			const batchSize = 512
			batch := make([]webtxprofile.Transaction, 0, batchSize)
			feed := func(from, n int) {
				fed := 0
				for fed < n {
					c := min(batchSize, n-fed)
					batch = batch[:0]
					for j := 0; j < c; j++ {
						i := from + fed + j
						tx := base[i%len(base)]
						tx.SourceIP = names[i%devices]
						tx.Timestamp = start.Add(time.Duration(i) * 50 * time.Millisecond)
						batch = append(batch, tx)
					}
					if err := mon.FeedBatch(batch); err != nil {
						b.Fatal(err)
					}
					fed += c
				}
			}
			feed(0, devices) // warm-up: admit every device
			b.ResetTimer()
			feed(devices, b.N)
			b.StopTimer()
			b.ReportMetric(float64(u)*float64(b.N)/b.Elapsed().Seconds(), "decisions/sec")
			// No Flush: it would classify every tracked device's open
			// window — 100k × U decisions of teardown, not steady state.
		})
	}
}

// BenchmarkParamSearchFullGrid measures one user's full Table III grid —
// all 15 ν values across the paper's four kernels — through the
// Gram-sharing search, reporting the kernel-evaluation and Gram-build
// counters per op (the per-cell column-cache path re-evaluated kernel
// columns in every one of the 60 cells; the row path builds 4 Grams).
func BenchmarkParamSearchFullGrid(b *testing.B) {
	env := benchEnv(b)
	trainWs, err := env.TrainWindows()
	if err != nil {
		b.Fatal(err)
	}
	user := env.Users[0]
	cfg := grid.Config{Algorithm: svm.OCSVM, MaxTrainWindows: 120, MaxOtherWindows: 40}
	kernels := grid.PaperKernels(env.Vocab.Size())
	before := svm.ReadKernelStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := grid.ParamSearchUsers([]string{user}, trainWs, grid.PaperParams, kernels, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	d := svm.ReadKernelStats().Sub(before)
	b.ReportMetric(float64(d.KernelEvals)/float64(b.N), "kernelEvals/op")
	b.ReportMetric(float64(d.GramBuilds)/float64(b.N), "gramBuilds/op")
	b.ReportMetric(float64(d.CacheHits)/float64(b.N), "cacheHits/op")
}

// benchDeviceNames generates a synthetic device population.
func benchDeviceNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("10.%d.%d.%d", i>>16&0xff, i>>8&0xff, i&0xff)
	}
	return names
}

// benchStateRound feeds one transaction per device (advancing timestamps),
// giving every device in-flight identification state — or, after a
// checkpoint, rehydrating every device from the spill store.
func benchStateRound(b *testing.B, mon *webtxprofile.Monitor, names []string, base []webtxprofile.Transaction, start time.Time, round int) {
	b.Helper()
	batch := make([]webtxprofile.Transaction, len(names))
	for d := range names {
		i := round*len(names) + d
		tx := base[i%len(base)]
		tx.SourceIP = names[d]
		tx.Timestamp = start.Add(time.Duration(i) * 10 * time.Millisecond)
		batch[d] = tx
	}
	if err := mon.FeedBatch(batch); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMonitorCheckpointRestore measures the durable-state cycle at
// fleet scale: Checkpoint spills every device's identification state to
// the store (serialize + write), and the next batch rehydrates all of
// them (read + restore) — one op is a full suspend/resume of the device
// population, against both store backends.
func BenchmarkMonitorCheckpointRestore(b *testing.B) {
	const devices = 1_000
	for _, impl := range []string{"mem", "disk"} {
		b.Run(impl, func(b *testing.B) {
			set := monitorBenchSet(b)
			env := benchEnv(b)
			var store webtxprofile.StateStore = webtxprofile.NewMemStateStore()
			if impl == "disk" {
				ds, err := webtxprofile.NewDiskStateStore(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				store = ds
			}
			mon, err := webtxprofile.NewMonitorWithConfig(set, 5, func(webtxprofile.Alert) {},
				webtxprofile.MonitorConfig{Shards: 64, Spill: store})
			if err != nil {
				b.Fatal(err)
			}
			defer mon.Close()
			names := benchDeviceNames(devices)
			base := env.Train.Transactions
			start := base[len(base)-1].Timestamp.Add(time.Hour)
			benchStateRound(b, mon, names, base, start, 0)
			benchStateRound(b, mon, names, base, start, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, _, err := mon.Checkpoint()
				if err != nil || n != devices {
					b.Fatalf("checkpoint spilled %d devices: %v", n, err)
				}
				benchStateRound(b, mon, names, base, start, i+2)
			}
			b.StopTimer()
			b.ReportMetric(devices, "devices/op")
			mon.Flush()
		})
	}
}

// benchDeviceState is a sink keeping decoded state alive past the loop.
var benchDeviceState webtxprofile.DeviceState

// BenchmarkDeviceStateCodec times the per-device state codec behind every
// spill and rehydrate (StateStore blobs) on one device mid-stream on the
// trained set: its window buffer, streaks and anchor, as Snapshot leaves
// them. blobBytes/op is the encoded size a store holds per device.
func BenchmarkDeviceStateCodec(b *testing.B) {
	set := monitorBenchSet(b)
	env := benchEnv(b)
	const host = "10.0.0.1"
	id, err := webtxprofile.NewIdentifier(set, host, 5)
	if err != nil {
		b.Fatal(err)
	}
	txs := env.Test.UserTransactions(set.Users()[0])
	txs = txs[:min(len(txs), 500)]
	for _, tx := range txs {
		tx.SourceIP = host
		if _, err := id.Feed(tx); err != nil {
			b.Fatal(err)
		}
	}
	st := webtxprofile.DeviceState{Device: host, LastSeen: txs[len(txs)-1].Timestamp, Identifier: id.Snapshot()}
	blob := core.EncodeDeviceState(st)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			blob = core.EncodeDeviceState(st)
		}
		b.ReportMetric(float64(len(blob)), "blobBytes/op")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if benchDeviceState, err = core.DecodeDeviceState(blob, set.Vocabulary); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(blob)), "blobBytes/op")
	})
}

// BenchmarkMonitorResidentBytes reports the live heap a Monitor holds per
// tracked device (B/device) on a fleet-lines-shaped stream: the test
// epoch's hosts cloned onto ~4k devices, each clone starting at a random
// point of its host's traffic, merged in time order, and sent as log
// lines parsed the way the collector parses them (one string per line,
// every field aliasing it) in collector-sized batches. The heap is read
// after a full collection, minus the heap of the empty monitor; by then
// the lines are garbage unless the monitor keeps them alive.
func BenchmarkMonitorResidentBytes(b *testing.B) {
	const devices = 4096
	const perDevice = 96
	set := monitorBenchSet(b)
	env := benchEnv(b)
	hosts := env.Test.Hosts()
	r := rand.New(rand.NewSource(1))
	start := env.Test.Transactions[len(env.Test.Transactions)-1].Timestamp.Add(time.Hour)
	stream := make([]webtxprofile.Transaction, 0, devices*perDevice)
	for i, name := range benchDeviceNames(devices) {
		txs := env.Test.HostTransactions(hosts[i%len(hosts)])
		span := txs[len(txs)-1].Timestamp.Sub(txs[0].Timestamp) + time.Hour
		first := r.Intn(len(txs))
		for j := 0; j < perDevice; j++ {
			k := first + j
			tx := txs[k%len(txs)]
			tx.SourceIP = name
			tx.Timestamp = start.Add(tx.Timestamp.Sub(txs[first].Timestamp) + time.Duration(k/len(txs))*span)
			stream = append(stream, tx)
		}
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Timestamp.Before(stream[j].Timestamp) })

	var perDev float64
	batch := make([]webtxprofile.Transaction, 0, 512)
	for i := 0; i < b.N; i++ {
		mon, err := webtxprofile.NewMonitorWithConfig(set, 3, func(webtxprofile.Alert) {},
			webtxprofile.MonitorConfig{Shards: 64})
		if err != nil {
			b.Fatal(err)
		}
		heap0 := benchLiveHeap()
		for lo := 0; lo < len(stream); lo += cap(batch) {
			batch = batch[:0]
			for _, tx := range stream[lo:min(lo+cap(batch), len(stream))] {
				tx, err := weblog.ParseLine(tx.MarshalLine())
				if err != nil {
					b.Fatal(err)
				}
				batch = append(batch, tx)
			}
			if err := mon.FeedBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		clear(batch) // the last batch's lines are the caller's, not the monitor's
		perDev = float64(int64(benchLiveHeap())-int64(heap0)) / float64(mon.Devices())
		mon.Close()
	}
	b.ReportMetric(perDev, "B/device")
}

// benchLiveHeap is the live heap after a full collection, in bytes.
func benchLiveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
