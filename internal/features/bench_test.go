package features

import (
	"testing"
	"time"

	"webtxprofile/internal/weblog"
)

// BenchmarkStreamerGap feeds a streamer (D=1m, S=30s) bursts of 16
// transactions a second apart, each burst separated from the next by an
// idle gap of 1 minute, 1 hour or 1 day. Composition cost follows traffic,
// not idle time, so ns/op (one transaction) stays flat across the gap
// lengths; a window-by-window walk grows with the gap (2,880 empty windows
// per burst at 1 day).
func BenchmarkStreamerGap(b *testing.B) {
	for _, gap := range []struct {
		name string
		d    time.Duration
	}{{"1m", time.Minute}, {"1h", time.Hour}, {"1d", 24 * time.Hour}} {
		b.Run(gap.name, func(b *testing.B) {
			const burst = 16
			proto := make([]weblog.Transaction, burst)
			for i := range proto {
				proto[i] = traceTx(t0, i)
			}
			vocab := Build(proto)
			s, err := NewStreamer(vocab, WindowConfig{Duration: time.Minute, Shift: 30 * time.Second}, "x")
			if err != nil {
				b.Fatal(err)
			}
			period := gap.d + burst*time.Second
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr := proto[i%burst]
				tr.Timestamp = t0.Add(time.Duration(i/burst)*period + time.Duration(i%burst)*time.Second)
				if _, err := s.Add(tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
