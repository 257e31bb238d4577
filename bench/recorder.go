package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webtxprofile"
	"webtxprofile/internal/collector"
	"webtxprofile/internal/weblog"
)

// recorder is the benchmark's bookkeeping on the delivery path: when each
// transaction's feed call returned, when each alert reached its
// callback, and every failed operation. Stream positions are delivery
// order — transactions travel one connection (or one goroutine), so the
// k-th transaction delivered is the k-th sent.
type recorder struct {
	base time.Time
	tr   *tracer // nil unless the run is traced
	// batchSpan names the span of one ingest feed call: the collector
	// handler, or the generator's own feed call under direct ingest.
	batchSpan string

	// processed counts stream transactions whose feed call returned. Only
	// the ingest goroutine stores it; its atomic load orders every
	// doneAt and batches write before it for the readers.
	processed atomic.Int64
	doneAt    []int64 // per stream position: ns since base when its feed returned
	lag       []int64 // per paced stream position: how late the generator sent it, ns
	batches   []batch

	// schedules are the fixed-rate phases, written before each one starts.
	schedules []schedule

	// While altBlock > 0, tracing is on only for feeds whose first stream
	// position lies in an odd block of altBlock positions from altFrom
	// (see harness.saturate).
	altFrom, altBlock atomic.Int64

	// ingest serializes feeding against membership changes (see
	// clusterSystem.churn): a change runs with no feed in flight.
	ingest sync.Mutex

	mu       sync.Mutex
	alerts   []alertRec
	failed   int64
	failures []string
	excluded map[string]bool // devices named by a failure
}

// batch is one feed call of the ingest path.
type batch struct {
	first, n   int
	start, end int64
}

// alertRec is one alert as its callback saw it.
type alertRec struct {
	device, user, prev string
	kind               webtxprofile.AlertKind
	start, end         int64 // the alert's window, unix ns (0 for a windowless alert)
	at                 int64 // callback time, ns since base
}

// schedule is one fixed-rate phase: stream position k in [from, to) is
// due at t0 + (k-from)·period, in ns since the recorder's base.
type schedule struct {
	from, to int
	t0       int64
	period   float64
}

func (s schedule) at(k int) int64 { return s.t0 + int64(float64(k-s.from)*s.period) }

// newRecorder allocates the bookkeeping for a stream of n transactions
// up front, so it counts in the baseline heap and not in heap_mb.
func newRecorder(n int) *recorder {
	return &recorder{
		base:     time.Now(),
		doneAt:   make([]int64, n),
		lag:      make([]int64, n),
		batches:  make([]batch, 0, n/16+64),
		alerts:   make([]alertRec, 0, 1<<15),
		excluded: make(map[string]bool),
	}
}

// now is the monotonic time since the recorder's base, in ns.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// sched is the due time of paced stream position k (0 if k was sent
// unpaced).
func (r *recorder) sched(k int) int64 {
	for _, s := range r.schedules {
		if k >= s.from && k < s.to {
			return s.at(k)
		}
	}
	return 0
}

// deliver runs one ingest feed call and records when it returned for
// every transaction it carried. It runs on the single ingest goroutine.
func (r *recorder) deliver(feed func([]weblog.Transaction) error, txs []weblog.Transaction) {
	k0 := int(r.processed.Load())
	if block := r.altBlock.Load(); block > 0 {
		r.tr.enabled.Store((int64(k0)-r.altFrom.Load())/block%2 == 1)
	}
	id := r.tr.beginBatch()
	start := r.now()
	err := feed(txs)
	end := r.now()
	r.tr.endBatch(id, r.batchSpan, start, end)
	for k := k0; k < k0+len(txs) && k < len(r.doneAt); k++ {
		r.doneAt[k] = end
	}
	r.batches = append(r.batches, batch{first: k0, n: len(txs), start: start, end: end})
	if err != nil {
		r.fail(err)
	}
	r.processed.Store(int64(k0 + len(txs)))
}

// wait blocks until n stream transactions have been processed.
func (r *recorder) wait(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for int(r.processed.Load()) < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("system stalled: %d of %d transactions processed after %v", r.processed.Load(), n, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// alert is the monitor's alert callback.
func (r *recorder) alert(a webtxprofile.Alert) {
	at := r.now()
	rec := alertRec{device: a.Device, user: a.User, prev: a.Previous, kind: a.Kind, at: at}
	if !a.Event.Window.End.IsZero() {
		rec.start, rec.end = a.Event.Window.Start.UnixNano(), a.Event.Window.End.UnixNano()
	}
	r.mu.Lock()
	r.alerts = append(r.alerts, rec)
	if rec.end == 0 {
		// Only a lossy eviction (a spill that fell back) raises an alert
		// without a closing window here: count it and keep the device out
		// of the comparison.
		r.failLocked(fmt.Errorf("device %s: windowless %v alert (lossy eviction)", a.Device, a.Kind))
	}
	r.mu.Unlock()
	r.tr.instant("core.alert", at)
}

// clusterAlert is the router's fan-in alert callback.
func (r *recorder) clusterAlert(a webtxprofile.NodeAlert) { r.alert(a.Alert) }

// fail counts one failed operation, or every line of a joined error
// (FeedBatch joins one line per failed transaction, plus an "N more"
// line for those beyond its cap).
func (r *recorder) fail(err error) {
	r.mu.Lock()
	r.failLocked(err)
	r.mu.Unlock()
}

func (r *recorder) failLocked(err error) {
	for _, line := range strings.Split(err.Error(), "\n") {
		n := int64(1)
		if f := strings.Fields(line); len(f) > 2 && f[0] == "core:" && f[2] == "more" {
			if v, perr := strconv.ParseInt(f[1], 10, 64); perr == nil {
				n = v
			}
		}
		r.failed += n
		if i := strings.Index(line, "device "); i >= 0 {
			if dev, _, ok := strings.Cut(line[i+len("device "):], ":"); ok && strings.TrimSpace(dev) != "" {
				r.excluded[strings.Fields(dev)[0]] = true
			}
		}
		if len(r.failures) < 8 {
			r.failures = append(r.failures, line)
		}
	}
}

// sender is one ingest connection of the load generator.
type sender interface {
	// send queues stream transaction k.
	send(k int) error
	// flush pushes what is due to the system; the generator calls it once
	// per tick.
	flush() error
	// close delivers everything still queued and ends the connection. On a
	// collector connection that also makes the collector deliver its
	// partial batch at once instead of after its flush interval.
	close() error
}

// binarySender sends binary records over one collector client
// connection (the client's binary encoding allocates nothing).
type binarySender struct {
	in *inputs
	c  *collector.Client
}

func (s binarySender) send(k int) error { return s.c.Send(s.in.tx(k)) }
func (s binarySender) flush() error     { return s.c.Flush() }
func (s binarySender) close() error     { return s.c.Close() }

// lineSender writes log lines to a collector connection the way a proxy
// streams its log: each line is assembled from pre-rendered parts in a
// reused buffer, so the generator allocates nothing per transaction and
// its garbage does not add to the collections the system pays for.
type lineSender struct {
	in   *inputs
	conn net.Conn
	bw   *bufio.Writer
	buf  []byte
}

func dialLines(in *inputs, addr string) (*lineSender, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &lineSender{in: in, conn: conn, bw: bufio.NewWriterSize(conn, 64<<10)}, nil
}

func (s *lineSender) send(k int) error {
	s.buf = s.in.appendLine(s.buf[:0], k)
	_, err := s.bw.Write(s.buf)
	return err
}

func (s *lineSender) flush() error { return s.bw.Flush() }

func (s *lineSender) close() error {
	err := s.bw.Flush()
	return errors.Join(err, s.conn.Close())
}

// Direct ingest batches the way the collector does with its defaults: a
// batch goes out when it holds directBatch transactions or its oldest
// one has waited directFlushAge.
const (
	directBatch    = 256
	directFlushAge = 50 * time.Millisecond
)

// directSender feeds the system from the generator goroutine itself — no
// network, no parsing — so a slow feed call makes the generator late,
// exactly like a blocked connection would.
type directSender struct {
	in     *inputs
	r      *recorder
	feed   func([]weblog.Transaction) error
	buf    []weblog.Transaction
	oldest int64
}

func newDirectSender(in *inputs, r *recorder, feed func([]weblog.Transaction) error) *directSender {
	return &directSender{in: in, r: r, feed: feed, buf: make([]weblog.Transaction, 0, directBatch)}
}

func (s *directSender) send(k int) error {
	if len(s.buf) == 0 {
		s.oldest = s.r.now()
	}
	s.buf = append(s.buf, s.in.tx(k))
	if len(s.buf) == directBatch {
		s.deliver()
	}
	return nil
}

func (s *directSender) flush() error {
	if len(s.buf) > 0 && s.r.now()-s.oldest >= int64(directFlushAge) {
		s.deliver()
	}
	return nil
}

func (s *directSender) close() error {
	if len(s.buf) > 0 {
		s.deliver()
	}
	return nil
}

func (s *directSender) deliver() {
	s.r.deliver(s.feed, s.buf)
	s.buf = s.buf[:0]
}
