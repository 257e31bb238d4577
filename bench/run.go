package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"webtxprofile/internal/weblog"
)

// options are the per-run settings from the command line.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// setup replaces setupSystem (tests substitute a stalling system).
	setup func(p *params, in *inputs, rec *recorder, seed int64) (system, float64, error)
}

// metrics maps a metric name to its value and unit.
type metrics map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// set records a metric; a value with no meaning (NaN, ±Inf) reads 0.
func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// barrierTimeout bounds every wait for the system to catch up, so a
// wedged system fails the run instead of hanging it.
const barrierTimeout = 60 * time.Second

// satSegments is how many pieces the saturation count is sent in. The
// machine's speed drifts over seconds, so the pieces are spread over the
// run — after the warm-up, between and after the open-loop halves, after
// the checkpoint cycle — and max_tx_s is their median rate.
const satSegments = 4

// harness runs one workload through its phases, in delivery order:
//
//	warm-up (fixed rate) · saturation · open loop, first half (fixed rate) ·
//	saturation · open loop, second half · saturation · checkpoint cycle ·
//	saturation · correctness gate
//
// and derives the metrics. Each phase takes the next stream positions.
type harness struct {
	p   *params
	o   options
	in  *inputs
	rec *recorder
	sys system

	seg, total int
	next       int // next unsent stream position
	// open holds the two open-loop halves: the positions whose latencies
	// count.
	open []schedule
	// parts is the delivered sequence, in order, for the correctness gate.
	parts []part

	setupS, buildS []float64
	heapMB         float64
	live           []int
	satTxS         []float64 // per saturation segment
	// A traced run's saturation time (ns) and transactions with tracing
	// on and off (trace.overhead_ratio).
	tracedNs, untracedNs, tracedN, untracedN int64
	checkpointS, restoreS                    float64
	spilled                                  int
	sendBusy                                 int64 // generator time inside send and flush, open loop
	mismatches                               []string
}

// part is one piece of the delivered sequence: stream positions
// [from, to), or a restore batch.
type part struct {
	from, to int
	restore  []weblog.Transaction
	clones   []int32 // clone of each restore transaction
}

// run executes one run of workload p.
func run(p params, o options) (*result, error) {
	if o.seconds <= 0 {
		o.seconds = defaultSeconds
	}
	h := &harness{p: &p, o: o}
	h.seg = p.SatCount / satSegments
	warm, half := int(p.Rate*p.WarmupS), int(p.Rate*o.seconds/2)
	h.total = warm + 2*half + satSegments*h.seg
	phases := make(map[string]float64)
	mark := time.Now()
	phase := func(name string) {
		phases[name] += time.Since(mark).Seconds()
		mark = time.Now()
	}

	var err error
	if h.in, err = buildInputs(&p, o.seed, h.total); err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	if len(h.in.stream) < h.total {
		return nil, fmt.Errorf("corpus yields %d transactions, run needs %d", len(h.in.stream), h.total)
	}
	h.rec = newRecorder(h.total)
	h.rec.batchSpan = "ingest.direct"
	if p.Kind != "population" {
		h.rec.batchSpan = "collector.handler"
	}
	if o.trace {
		h.rec.tr = newTracer(h.rec.base)
	}
	heap0 := liveHeap()
	phase("inputs")

	defer func() {
		if h.sys != nil {
			h.sys.close()
		}
	}()
	if err := h.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// The training epoch is set-up's input only; holding it would make
	// every later collection scan it.
	h.in.train = nil
	phase("setup")

	steps := []struct {
		name string
		fn   func() error
	}{
		{"paced", func() error { return h.pace(warm, false, 0) }},
		{"saturation", h.saturate},
		{"paced", func() error { return h.pace(half, true, 0) }},
		{"saturation", h.saturate},
		{"paced", func() error {
			if err := h.pace(half, true, 0.5); err != nil {
				return err
			}
			h.heapMB = float64(int64(liveHeap())-int64(heap0)) / (1 << 20)
			h.live = h.sys.live()
			return nil
		}},
		{"saturation", h.saturate},
		{"checkpoint_cycle", func() error { h.cycle(); return nil }},
		{"saturation", h.saturate},
	}
	for i, st := range steps {
		if err := st.fn(); err != nil {
			return nil, fmt.Errorf("%s (step %d): %w", st.name, i+1, err)
		}
		phase(st.name)
	}
	if err := h.sys.sync(); err != nil {
		h.rec.fail(err)
	}
	if err := h.check(); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	phase("correctness_gate")

	res := h.result()
	if o.trace {
		if err := isolate(h, res.Metrics); err != nil {
			return nil, fmt.Errorf("stage isolation: %w", err)
		}
		if err := h.rec.tr.write(o.traceOut, map[string]any{"workload": p.Name, "seed": o.seed}); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	phase("report")
	res.Meta.PhaseS = phases
	res.Meta.SaturationTxS = h.satTxS
	return res, nil
}

// liveHeap is the live heap after a full collection, in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setup builds the system SetupReps times; the last one runs the
// workload. A collection before each build keeps the previous one's
// garbage out of the timing.
func (h *harness) setup() error {
	build := setupSystem
	if h.o.setup != nil {
		build = h.o.setup
	}
	for i := 0; i < h.p.SetupReps; i++ {
		if h.sys != nil {
			h.sys.close()
			h.sys = nil
		}
		runtime.GC()
		start := time.Now()
		sys, buildS, err := build(h.p, h.in, h.rec, h.o.seed)
		if err != nil {
			return err
		}
		h.setupS = append(h.setupS, time.Since(start).Seconds())
		h.buildS = append(h.buildS, buildS)
		h.sys = sys
	}
	return nil
}

// pace sends the next n stream transactions on a fixed-rate schedule
// over one connection and waits until they are processed. An open-loop
// half covers the fraction [from, from+½) of the open loop: its
// latencies count, and it makes the system's membership changes that
// fall in it on time. The warm-up is not open.
func (h *harness) pace(n int, open bool, from float64) error {
	s, err := h.sys.ingest()
	if err != nil {
		return err
	}
	rec := h.rec
	sc := schedule{from: h.next, to: h.next + n, t0: rec.now() + int64(time.Millisecond), period: 1e9 / h.p.Rate}
	rec.schedules = append(rec.schedules, sc)
	start := rec.base.Add(time.Duration(sc.t0))
	done := make(chan error, 1)
	go func() { done <- h.generate(s, sc, start, open) }()
	var genErr error
	finished := false
	for _, ev := range h.sys.events() {
		if !open || ev.at < from || ev.at >= from+0.5 {
			continue
		}
		at := start.Add(time.Duration((ev.at - from) * h.o.seconds * float64(time.Second)))
		select {
		case genErr = <-done:
			finished = true
		case <-time.After(time.Until(at)):
		}
		if finished {
			break
		}
		if err := ev.fn(); err != nil {
			rec.fail(fmt.Errorf("membership change: %w", err))
		}
	}
	if !finished {
		genErr = <-done
	}
	if err := s.close(); genErr == nil {
		genErr = err
	}
	if genErr != nil {
		return genErr
	}
	if open {
		h.open = append(h.open, sc)
	}
	h.parts = append(h.parts, part{from: sc.from, to: sc.to})
	h.next = sc.to
	return rec.wait(sc.to, barrierTimeout)
}

// generate is the open-loop load generator: every 1 ms tick it sends
// each transaction whose scheduled time has passed, then flushes. It
// never waits for the system, so a stall delays later transactions
// without delaying their schedule; lag records how late each was sent.
func (h *harness) generate(s sender, sc schedule, start time.Time, measured bool) error {
	rec := h.rec
	next := sc.from
	for next < sc.to {
		el := time.Since(start)
		if due := min(sc.to, sc.from+int(float64(el)/sc.period)+1); el >= 0 && next < due {
			t := rec.now()
			for ; next < due; next++ {
				rec.lag[next] = rec.now() - sc.at(next)
				if err := s.send(next); err != nil {
					return err
				}
			}
			if err := s.flush(); err != nil {
				return err
			}
			if measured {
				h.sendBusy += rec.now() - t
			}
		}
		tick := (el/time.Millisecond + 1) * time.Millisecond
		if d := time.Until(start.Add(tick)); d > 0 {
			time.Sleep(d)
		}
	}
	return nil
}

// overheadBlocks is how many blocks each saturation segment of a traced
// run is cut into, alternating tracing off and on, to measure what
// tracing costs: interleaved blocks see the same mix of work, where two
// halves of a segment would not.
const overheadBlocks = 8

// saturate sends the next seg stream transactions unpaced on a fresh
// connection and records their rate: count over first send → last
// transaction processed.
func (h *harness) saturate() error {
	rec := h.rec
	from, to := h.next, h.next+h.seg
	block := max(1, (to-from)/overheadBlocks)
	if rec.tr != nil {
		rec.altFrom.Store(int64(from))
		rec.altBlock.Store(int64(block))
	}
	s, err := h.sys.ingest()
	if err != nil {
		return err
	}
	start := rec.now()
	for k := from; k < to; k++ {
		if err := s.send(k); err != nil {
			s.close()
			return err
		}
	}
	if err := s.close(); err != nil {
		return err
	}
	if err := rec.wait(to, barrierTimeout); err != nil {
		return err
	}
	h.satTxS = append(h.satTxS, float64(to-from)/(float64(rec.doneAt[to-1]-start)/1e9))
	h.parts = append(h.parts, part{from: from, to: to})
	h.next = to
	if rec.tr == nil {
		return nil
	}
	rec.altBlock.Store(0)
	rec.tr.enabled.Store(true)
	prev := start
	for b := from; b+block <= to; b += block {
		end := rec.doneAt[b+block-1]
		if (b-from)/block%2 == 1 {
			h.tracedNs, h.tracedN = h.tracedNs+end-prev, h.tracedN+int64(block)
		} else {
			h.untracedNs, h.untracedN = h.untracedNs+end-prev, h.untracedN+int64(block)
		}
		prev = end
	}
	return nil
}

// cycle checkpoints every live device, then rehydrates each device sent
// so far with one transaction.
func (h *harness) cycle() {
	runtime.GC()
	start := time.Now()
	n, err := h.sys.checkpoint()
	h.checkpointS = time.Since(start).Seconds()
	if err != nil {
		h.rec.fail(err)
	}
	h.spilled = n
	txs, clones := h.in.restoreBatch(h.next)
	start = time.Now()
	for i := 0; i < len(txs); i += directBatch {
		if err := h.sys.feed(txs[i:min(i+directBatch, len(txs))]); err != nil {
			h.rec.fail(err)
		}
	}
	h.restoreS = time.Since(start).Seconds()
	h.parts = append(h.parts, part{restore: txs, clones: clones})
}
