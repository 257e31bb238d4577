package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the spans of a traced run in memory; they are written out
// once, when the run ends. Spans are recorded by the benchmark around its
// calls into each layer's public functions, so an untraced run (nil
// tracer) executes none of this. Every method is safe on a nil tracer.
type tracer struct {
	base    time.Time
	enabled atomic.Bool
	ids     atomic.Int64
	// cur and batchN identify the ingest batch in flight: spans opened
	// while it runs (feed calls, store calls, alerts) name it as parent.
	cur    atomic.Int64
	batchN atomic.Int64

	mu    sync.Mutex
	spans []span
}

type span struct {
	name              string
	id, parent, batch int64
	start, end        int64 // ns since the run's base
}

func newTracer(base time.Time) *tracer {
	t := &tracer{base: base}
	t.enabled.Store(true)
	return t
}

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginBatch opens the span of one ingest feed call and returns its id
// (0 when tracing is off).
func (t *tracer) beginBatch() int64 {
	if !t.on() {
		return 0
	}
	id := t.ids.Add(1)
	t.batchN.Add(1)
	t.cur.Store(id)
	return id
}

// endBatch closes the span beginBatch opened.
func (t *tracer) endBatch(id int64, name string, start, end int64) {
	if id == 0 {
		return
	}
	t.add(span{name: name, id: id, batch: t.batchN.Load(), start: start, end: end})
	t.cur.Store(0)
}

// wrap runs fn inside a span named name, parented to the ingest batch in
// flight.
func (t *tracer) wrap(name string, fn func() error) error {
	if !t.on() {
		return fn()
	}
	s := span{name: name, id: t.ids.Add(1), parent: t.cur.Load(), batch: t.batchN.Load(), start: t.now()}
	err := fn()
	s.end = t.now()
	t.add(s)
	return err
}

// instant records a zero-length span at time at.
func (t *tracer) instant(name string, at int64) {
	if !t.on() {
		return
	}
	t.add(span{name: name, id: t.ids.Add(1), parent: t.cur.Load(), batch: t.batchN.Load(), start: at, end: at})
}

// durations returns the durations (ns) of the named spans that started in
// [from, to).
func (t *tracer) durations(name string, from, to int64) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.start >= from && s.start < to {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// spanSummary is the per-name aggregate written with the trace.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is the total minus the part of each span's interval that its
	// child spans cover.
	SelfMs float64 `json:"self_ms"`
}

// summary aggregates every span by name, with self times.
func (t *tracer) summary() map[string]spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]spanSummary)
	for _, s := range t.spans {
		sum := out[s.name]
		sum.Count++
		d := float64(s.end - s.start)
		sum.TotalMs += d / 1e6
		sum.SelfMs += (d - covered(s, children[s.id])) / 1e6
		out[s.name] = sum
	}
	return out
}

// covered is how much of s's interval the union of kids covers, in ns.
func covered(s span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	kids = slices.Clone(kids)
	slices.SortFunc(kids, func(a, b span) int { return int(a.start - b.start) })
	var total int64
	cur, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		st, en := max(k.start, s.start), min(k.end, s.end)
		if en <= st {
			continue
		}
		if st > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = st, en
		} else if en > curEnd {
			curEnd = en
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return float64(total)
}

// write saves the spans as a Chrome trace-event file (viewable in
// Perfetto or chrome://tracing): one complete event per span, one lane
// per span name, with the id, parent and batch in args and the per-name
// summary under otherData.
func (t *tracer) write(path string, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	summary := t.summary()
	t.mu.Lock()
	lanes := make(map[string]int)
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		lane, ok := lanes[s.name]
		if !ok {
			lane = len(lanes) + 1
			lanes[s.name] = lane
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: lane,
			Args: map[string]any{"id": s.id, "parent": s.parent, "batch": s.batch},
		})
	}
	t.mu.Unlock()
	meta["summary"] = summary
	b, err := json.Marshal(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     events,
		"otherData":       meta,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
