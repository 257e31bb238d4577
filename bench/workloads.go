package main

import "fmt"

// params fixes one workload: its inputs, the system it assembles and its
// operating point. Every run records them in its result file.
type params struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`   // fleet, population or churn: which system setupSystem builds
	Corpus string `json:"corpus"` // synthetic corpus trained on and cloned (see corpusConfig)
	// Devices is the number of cloned devices in the stream.
	Devices int `json:"devices"`
	// Profiles is the profile population (population kind only).
	Profiles int `json:"profiles,omitempty"`
	// K is the consecutive-window identification threshold.
	K int `json:"k"`
	// Rate is the fixed offered rate of the warm-up and open-loop phases,
	// about a third of the workload's median max_tx_s: far enough below it
	// that a host running half as fast does not push the open loop into
	// queueing. At 55% the latencies of runs on a slow host tripled.
	Rate float64 `json:"rate_tx_s"`
	// SatCount is the number of transactions sent unpaced, in
	// satSegments pieces, to measure max_tx_s.
	SatCount int `json:"saturation_tx"`
	// SLOms is the latency objective behind loadgen.miss_ratio, about 5×
	// the p99 measured at Rate.
	SLOms       float64 `json:"slo_ms"`
	DefaultSeed int64   `json:"default_seed"`
	WarmupS     float64 `json:"warmup_s"`
	// SetupReps is how many times set-up runs; setup_s is their median.
	SetupReps int `json:"setup_reps"`
	// IdleTTLs is the nodes' idle-eviction TTL in stream seconds (churn).
	IdleTTLs float64 `json:"idle_ttl_s,omitempty"`
	// RefEvery makes the correctness gate replay every RefEvery-th device
	// (1: all of them).
	RefEvery int `json:"reference_every"`
	// IsolateTx is the size of the traced run's stage-isolation sample.
	IsolateTx int `json:"isolate_tx"`
}

// defaultSeconds is the length of the open-loop phase when -seconds is
// not given.
const defaultSeconds = 12

// workloads are the benchmark's traffic mixes; each is dominated by a
// different layer. BENCHMARK.json and README.md give the reasons.
var workloads = []params{
	{
		Name: "fleet-lines", Kind: "fleet", Corpus: "paper",
		Devices: 4000, K: 3,
		Rate: 65000, SatCount: 1200000, SLOms: 40,
		DefaultSeed: 1, WarmupS: 2, SetupReps: 3,
		RefEvery: 2, IsolateTx: 100000,
	},
	{
		Name: "population-2k", Kind: "population", Corpus: "paper",
		Devices: 10000, Profiles: 2000, K: 3,
		Rate: 35000, SatCount: 800000, SLOms: 60,
		DefaultSeed: 1, WarmupS: 2, SetupReps: 3,
		RefEvery: 8, IsolateTx: 50000,
	},
	{
		Name: "cluster-churn", Kind: "churn", Corpus: "paper",
		Devices: 4000, K: 3,
		Rate: 40000, SatCount: 1200000, SLOms: 60,
		DefaultSeed: 1, WarmupS: 2, SetupReps: 3,
		IdleTTLs: 3600, RefEvery: 1, IsolateTx: 50000,
	},
}

func workloadByName(name string) (params, error) {
	for _, p := range workloads {
		if p.Name == name {
			return p, nil
		}
	}
	return params{}, fmt.Errorf("unknown workload %q (want fleet-lines, population-2k or cluster-churn)", name)
}

// toy scales a workload down to a toy corpus and a few hundred devices,
// keeping its shape: the smoke tests run every workload this way.
func (p params) toy() params {
	p.Corpus = "toy"
	p.Devices = 200
	p.Rate = 2000
	p.SatCount = 2000
	p.WarmupS = 0.3
	p.SetupReps = 1
	p.IsolateTx = 2000
	if p.Profiles > 0 {
		p.Profiles = 60
	}
	if p.IdleTTLs > 0 {
		p.IdleTTLs = 60
	}
	return p
}
