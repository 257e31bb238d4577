package main

import (
	"container/heap"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"webtxprofile/internal/core"
	"webtxprofile/internal/features"
	"webtxprofile/internal/synth"
	"webtxprofile/internal/weblog"
)

// inputs is everything a run feeds the system, generated from the seed
// before any timing starts. The stream is kept compact — one (device,
// source record) pair per transaction — and materialized at send time,
// so a million-transaction run holds 8 bytes per transaction instead of
// a full record.
type inputs struct {
	train *weblog.Dataset // training epoch of the corpus
	dim   int             // vocabulary size of the training epoch

	hosts  [][]weblog.Transaction // test-epoch stream of each source host
	lines  [][]lineParts          // log-line rendering of each host record
	clones []clone                // one per device
	names  []string               // device id (SourceIP) per clone
	base   time.Time              // stream-time origin of every clone
	stream []item                 // the merged, time-ordered stream
}

// clone is one device: a host's test-epoch stream, rotated by rot so
// every device sits at a different point of its sessions when the run
// starts. The part of the stream before the rotation point is replayed
// after the rest, shifted by span, so timestamps never go backwards.
type clone struct {
	host  int32
	split int32         // index of the first record at or after rot
	rot   time.Duration // rotation offset from the host's first record
	span  time.Duration // host stream span plus a one-hour seam
}

// lineParts is a record's log line without its timestamp and source
// address, the two fields a clone changes: the line is timestamp + mid +
// address + tail.
type lineParts struct{ mid, tail string }

// lineTimeLayout is the timestamp format of weblog's log lines.
const lineTimeLayout = "2006-01-02 15:04:05.000"

// item is one transaction of the stream: a clone and the index of its
// source record in the clone's host stream.
type item struct {
	clone int32
	idx   int32
}

// corpusConfig returns the synthetic corpus a workload trains on and
// clones its devices from.
func corpusConfig(name string) (synth.Config, error) {
	cfg := synth.DefaultConfig()
	switch name {
	case "paper":
		// The paper-shaped default: 36 users (25 retained), 35 hosts,
		// 26 weeks.
	case "toy":
		cfg.Users = 6
		cfg.SmallUsers = 0
		cfg.Devices = 4
		cfg.Weeks = 4
		cfg.Services = 120
		cfg.Archetypes = 4
		cfg.ConfusableUsers = 2
		cfg.ServicesPerUserMax = 30
		cfg.WeeklyTxMedian = 700
		cfg.WeeklyTxSigma = 0.3
		cfg.MinKeptTx = 2200
	default:
		return synth.Config{}, fmt.Errorf("unknown corpus %q", name)
	}
	return cfg, nil
}

// buildInputs generates the corpus, splits it as training does, clones
// the test epoch to p.Devices devices and merges them into a stream of n
// transactions. The corpus itself is fixed by the workload; the seed
// picks each device's source host, rotation and id.
func buildInputs(p *params, seed int64, n int) (*inputs, error) {
	cfg, err := corpusConfig(p.Corpus)
	if err != nil {
		return nil, err
	}
	g, err := synth.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	split, err := core.PrepareSplit(g.Generate(), core.Config{})
	if err != nil {
		return nil, err
	}
	in := &inputs{train: split.Train, dim: features.BuildFromDataset(split.Train).Size()}
	for _, h := range split.Test.Hosts() {
		txs := split.Test.HostTransactions(h)
		if len(txs) == 0 {
			continue
		}
		in.hosts = append(in.hosts, txs)
		// Render each record once through MarshalLine itself, with a
		// placeholder address to split at, so the lines keep its format.
		parts := make([]lineParts, len(txs))
		for i, tx := range txs {
			tx.SourceIP = "\x00"
			line := tx.MarshalLine()
			mid, tail, _ := strings.Cut(line[len(lineTimeLayout):], "\x00")
			parts[i] = lineParts{mid: mid, tail: tail}
		}
		in.lines = append(in.lines, parts)
	}
	if len(in.hosts) == 0 {
		return nil, fmt.Errorf("corpus %q has an empty test epoch", p.Corpus)
	}
	in.base = time.Date(2016, 1, 4, 0, 0, 0, 0, time.UTC)

	r := rand.New(rand.NewSource(seed))
	offset := r.Intn(1 << 20)
	in.clones = make([]clone, p.Devices)
	in.names = make([]string, p.Devices)
	for c := range in.clones {
		h := r.Intn(len(in.hosts))
		txs := in.hosts[h]
		span := txs[len(txs)-1].Timestamp.Sub(txs[0].Timestamp) + time.Hour
		rot := time.Duration(r.Int63n(int64(span)))
		sp := 0
		for sp < len(txs) && txs[sp].Timestamp.Sub(txs[0].Timestamp) < rot {
			sp++
		}
		in.clones[c] = clone{host: int32(h), split: int32(sp), rot: rot, span: span}
		id := c + offset
		in.names[c] = fmt.Sprintf("10.%d.%d.%d", id>>16&0xff, id>>8&0xff, id&0xff)
	}
	in.merge(n)
	return in, nil
}

// rel is the rotated stream-time offset of record idx of clone c.
func (in *inputs) rel(c *clone, idx int) time.Duration {
	txs := in.hosts[c.host]
	d := txs[idx].Timestamp.Sub(txs[0].Timestamp) - c.rot
	if d < 0 {
		d += c.span
	}
	return d
}

// when is the stream timestamp of record idx of clone c, truncated to the
// millisecond precision of the log-line format so every ingest encoding
// delivers exactly the transaction the reference replays.
func (in *inputs) when(c *clone, idx int) time.Time {
	return in.base.Add(in.rel(c, idx)).Truncate(time.Millisecond)
}

// tx materializes stream transaction k.
func (in *inputs) tx(k int) weblog.Transaction {
	it := in.stream[k]
	c := &in.clones[it.clone]
	tx := in.hosts[c.host][it.idx]
	tx.SourceIP = in.names[it.clone]
	tx.Timestamp = in.when(c, int(it.idx))
	return tx
}

// appendLine appends stream transaction k as a log line (with its
// newline) to dst; the line is what MarshalLine renders for in.tx(k).
func (in *inputs) appendLine(dst []byte, k int) []byte {
	it := in.stream[k]
	c := &in.clones[it.clone]
	p := &in.lines[c.host][it.idx]
	dst = in.when(c, int(it.idx)).UTC().AppendFormat(dst, lineTimeLayout)
	dst = append(dst, p.mid...)
	dst = append(dst, in.names[it.clone]...)
	dst = append(dst, p.tail...)
	return append(dst, '\n')
}

// at is the timestamp of stream transaction k.
func (in *inputs) at(k int) time.Time {
	it := in.stream[k]
	return in.when(&in.clones[it.clone], int(it.idx))
}

// cloneIndex maps each device id to its clone.
func (in *inputs) cloneIndex() map[string]int32 {
	m := make(map[string]int32, len(in.names))
	for c, name := range in.names {
		m[name] = int32(c)
	}
	return m
}

// cursor walks one clone's rotated stream during the merge.
type cursor struct {
	clone int32
	pos   int32 // records consumed
	t     time.Duration
}

type cursorHeap []cursor

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].clone < h[j].clone
}
func (h cursorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)   { *h = append(*h, x.(cursor)) }
func (h *cursorHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// merge fills the stream with the first n transactions of all clones in
// stream-time order (ties by clone).
func (in *inputs) merge(n int) {
	idxOf := func(c *clone, pos int32) int {
		return (int(c.split) + int(pos)) % len(in.hosts[c.host])
	}
	h := make(cursorHeap, 0, len(in.clones))
	for ci := range in.clones {
		c := &in.clones[ci]
		h = append(h, cursor{clone: int32(ci), t: in.rel(c, idxOf(c, 0))})
	}
	heap.Init(&h)
	in.stream = make([]item, 0, n)
	for len(in.stream) < n && h.Len() > 0 {
		cur := &h[0]
		c := &in.clones[cur.clone]
		in.stream = append(in.stream, item{clone: cur.clone, idx: int32(idxOf(c, cur.pos))})
		cur.pos++
		if int(cur.pos) == len(in.hosts[c.host]) {
			heap.Pop(&h)
			continue
		}
		cur.t = in.rel(c, idxOf(c, cur.pos))
		heap.Fix(&h, 0)
	}
}

// restoreBatch returns one transaction for every device that occurs in
// stream positions [0, at) — a copy of its last one there, same
// timestamp, so feeding it rehydrates the device without completing a
// window or running ahead of the device's later transactions — with each
// transaction's clone.
func (in *inputs) restoreBatch(at int) ([]weblog.Transaction, []int32) {
	last := make([]int, len(in.clones))
	for i := range last {
		last[i] = -1
	}
	for k, it := range in.stream[:at] {
		last[it.clone] = k
	}
	var txs []weblog.Transaction
	var clones []int32
	for c, k := range last {
		if k >= 0 {
			txs = append(txs, in.tx(k))
			clones = append(clones, int32(c))
		}
	}
	return txs, clones
}
