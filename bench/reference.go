package main

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"sync"

	"webtxprofile"
	"webtxprofile/internal/core"
	"webtxprofile/internal/weblog"
)

// alertSig is the identity of one alert the gate compares: kind, users
// and the window that raised it.
func alertSig(kind webtxprofile.AlertKind, user, prev string, start, end int64) string {
	return fmt.Sprintf("%v %s<-%s [%d,%d)", kind, user, prev, start, end)
}

// check is the correctness gate: it replays the exact delivered sequence
// — stream segments and the restore batch, in order — through reference
// Monitors with one shard, one worker and no spill or eviction, and
// compares every checked device's alert sequence with the live system's.
// Devices named by a counted failure are excluded (the failure already
// counts against the run). The collector must have received every
// transaction sent and parsed all of them.
func (h *harness) check() error {
	keep := func(c int32) bool { return int(c)%h.p.RefEvery == 0 }
	want, err := reference(h.sys.profiles(), h.p.K, h.in, h.parts, keep)
	if err != nil {
		return err
	}
	cloneOf := h.in.cloneIndex()
	got := make(map[string][]string)
	h.rec.mu.Lock()
	for _, a := range h.rec.alerts {
		if c, ok := cloneOf[a.device]; ok && keep(c) {
			got[a.device] = append(got[a.device], alertSig(a.kind, a.user, a.prev, a.start, a.end))
		}
	}
	excluded := h.rec.excluded
	h.rec.mu.Unlock()

	devices := make([]string, 0, len(want))
	for d := range want {
		devices = append(devices, d)
	}
	for d := range got {
		if _, ok := want[d]; !ok {
			devices = append(devices, d)
		}
	}
	sort.Strings(devices)
	for _, d := range devices {
		if excluded[d] || slices.Equal(got[d], want[d]) {
			continue
		}
		i := 0
		for i < len(got[d]) && i < len(want[d]) && got[d][i] == want[d][i] {
			i++
		}
		at := func(s []string) string {
			if i < len(s) {
				return s[i]
			}
			return "(none)"
		}
		h.mismatches = append(h.mismatches, fmt.Sprintf("device %s: %d alerts, reference %d; first difference at #%d: %s, reference %s",
			d, len(got[d]), len(want[d]), i, at(got[d]), at(want[d])))
	}
	if col := h.sys.collector(); col != nil {
		if got := col.Received(); got != int64(h.total) {
			h.mismatches = append(h.mismatches, fmt.Sprintf("collector received %d of %d transactions sent", got, h.total))
		}
		if n := col.ParseFailures(); n != 0 {
			h.mismatches = append(h.mismatches, fmt.Sprintf("collector failed to parse %d transactions", n))
		}
	}
	return nil
}

// reference replays the kept devices' share of the delivered sequence and
// returns each device's alert signatures. Devices are independent, so the
// replay is split by device across one reference Monitor per processor.
func reference(set *core.ProfileSet, k int, in *inputs, parts []part, keep func(int32) bool) (map[string][]string, error) {
	n := runtime.GOMAXPROCS(0)
	wants := make([]map[string][]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wants[i], errs[i] = replay(set, k, in, parts, func(c int32) bool {
				return int(c)%n == i && keep(c)
			})
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	want := wants[0]
	for _, w := range wants[1:] {
		maps.Copy(want, w)
	}
	return want, nil
}

// replay feeds the kept devices' share of the delivered sequence to a
// fresh Monitor with one shard, one worker and no spill or eviction.
func replay(set *core.ProfileSet, k int, in *inputs, parts []part, keep func(int32) bool) (map[string][]string, error) {
	want := make(map[string][]string)
	var mu sync.Mutex
	mon, err := webtxprofile.NewMonitorWithConfig(set, k, func(a webtxprofile.Alert) {
		var start, end int64
		if !a.Event.Window.End.IsZero() {
			start, end = a.Event.Window.Start.UnixNano(), a.Event.Window.End.UnixNano()
		}
		mu.Lock()
		want[a.Device] = append(want[a.Device], alertSig(a.Kind, a.User, a.Previous, start, end))
		mu.Unlock()
	}, webtxprofile.MonitorConfig{Shards: 1, BatchWorkers: 1})
	if err != nil {
		return nil, err
	}
	defer mon.Close()
	var errs []error
	batch := make([]weblog.Transaction, 0, directBatch)
	add := func(tx weblog.Transaction) {
		batch = append(batch, tx)
		if len(batch) == cap(batch) {
			errs = append(errs, mon.FeedBatch(batch))
			batch = batch[:0]
		}
	}
	for _, pt := range parts {
		for p := pt.from; p < pt.to; p++ {
			if keep(in.stream[p].clone) {
				add(in.tx(p))
			}
		}
		for i, tx := range pt.restore {
			if keep(pt.clones[i]) {
				add(tx)
			}
		}
	}
	if len(batch) > 0 {
		errs = append(errs, mon.FeedBatch(batch))
	}
	mon.Sync()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("reference monitor refused the input: %w", err)
	}
	mu.Lock()
	defer mu.Unlock()
	return want, nil
}
