package core

import (
	"fmt"
	"strings"

	"webtxprofile/internal/features"
	"webtxprofile/internal/weblog"
)

// Event is one identification step emitted by the streaming Identifier:
// a completed window, the profiles that accepted it, and — once a profile
// has accepted ConsecutiveK windows in a row — the identified user.
type Event struct {
	Window   features.Window
	Accepted []string
	// Identified is the user whose model has accepted ConsecutiveK
	// consecutive windows ending at this one ("" while undecided). This
	// is the consecutive-window rule sketched at the end of Sect. V-B.
	Identified string
}

// Identifier consumes a live transaction stream from one device and emits
// identification events — the paper's continuous-authentication /
// intrusion-monitoring deployment (Sect. I). It is not safe for concurrent
// use; feed it from a single goroutine.
type Identifier struct {
	set      *ProfileSet
	streamer *features.Streamer
	sc       *scorer
	k        int
	// streaks holds the non-zero consecutive-accept streaks, ascending by
	// user index into sc.users. After any window the only non-zero
	// streaks belong to the users that accepted it, so this stays a
	// handful of entries per device at any population size.
	streaks []streak
	host    string
}

// streak is one user's current consecutive-accept run.
type streak struct {
	user int // index into the scorer's users
	run  int
}

// NewIdentifier creates a streaming identifier for one device.
// consecutiveK is the number of consecutive accepted windows required to
// report identification (1 = identify on any accepted window; the paper
// suggests e.g. 10 windows ≈ 5 minutes at S=30s).
func NewIdentifier(set *ProfileSet, host string, consecutiveK int) (*Identifier, error) {
	sc, err := newScorer(set)
	if err != nil {
		return nil, err
	}
	return newIdentifierWithScorer(set, host, consecutiveK, sc)
}

// newIdentifierWithScorer creates an identifier sharing an existing scorer
// (and its scratch buffers) — the Monitor hands every identifier in a
// shard the shard's scorer, since the shard lock already serializes them.
func newIdentifierWithScorer(set *ProfileSet, host string, consecutiveK int, sc *scorer) (*Identifier, error) {
	if consecutiveK <= 0 {
		consecutiveK = 1
	}
	st, err := features.NewStreamer(set.Vocabulary, set.Window, host)
	if err != nil {
		return nil, err
	}
	return &Identifier{
		set:      set,
		streamer: st,
		sc:       sc,
		k:        consecutiveK,
		host:     host,
	}, nil
}

// IdentifierState is a serializable snapshot of a streaming Identifier:
// the streamer state (anchor, buffered transactions, window position) plus
// the per-user consecutive-accept streaks. Streaks are keyed by user id —
// not by profile index — so a snapshot survives profile-set reloads as
// long as the vocabulary and window configuration are unchanged; streaks
// of users absent from the restoring set are dropped, and users new to it
// start at zero.
type IdentifierState struct {
	Host string `json:"host"`
	// K is the consecutive-window threshold the identifier ran with.
	// RestoreIdentifier resumes with it; the Monitor's import paths use
	// the monitor's own threshold instead (every device of a monitor
	// shares one rule).
	K        int                    `json:"k"`
	Streamer features.StreamerState `json:"streamer"`
	Runs     map[string]int         `json:"runs,omitempty"`
}

// Snapshot captures the identifier's full resumable state. The snapshot is
// independent of the identifier (buffered transactions are copied) and
// stays valid while it keeps running.
func (id *Identifier) Snapshot() IdentifierState {
	st := IdentifierState{Host: id.host, K: id.k, Streamer: id.streamer.Snapshot()}
	if len(id.streaks) > 0 {
		st.Runs = make(map[string]int, len(id.streaks))
		for _, sk := range id.streaks {
			st.Runs[id.sc.users[sk.user]] = sk.run
		}
	}
	return st
}

// RestoreIdentifier rebuilds an identifier from a snapshot against the
// given profile set (which must carry the vocabulary and window
// configuration the snapshot was taken under). The restored identifier
// emits exactly the event sequence the snapshotted one would have emitted —
// the property TestIdentifierSnapshotResume asserts.
func RestoreIdentifier(set *ProfileSet, st IdentifierState) (*Identifier, error) {
	sc, err := newScorer(set)
	if err != nil {
		return nil, err
	}
	return restoreIdentifierWithScorer(set, strings.Clone(st.Host), st, st.K, sc)
}

// restoreIdentifierWithScorer is RestoreIdentifier sharing an existing
// scorer and overriding the consecutive-window threshold — the shape the
// Monitor's rehydration and shard-import paths need. host is the caller's
// own copy of st.Host, which the identifier keeps in place of the state's
// string.
func restoreIdentifierWithScorer(set *ProfileSet, host string, st IdentifierState, consecutiveK int, sc *scorer) (*Identifier, error) {
	if consecutiveK <= 0 {
		consecutiveK = 1
	}
	if st.Host == "" {
		return nil, fmt.Errorf("core: identifier state missing host")
	}
	if st.Host != host {
		return nil, fmt.Errorf("core: identifier state for %s restored as %s", st.Host, host)
	}
	if st.Streamer.Entity != st.Host {
		return nil, fmt.Errorf("core: identifier state for %s carries streamer state for %q", st.Host, st.Streamer.Entity)
	}
	streamer, err := features.RestoreStreamer(set.Vocabulary, set.Window, st.Streamer)
	if err != nil {
		return nil, fmt.Errorf("core: restoring streamer for %s: %w", st.Host, err)
	}
	var streaks []streak
	for j, u := range sc.users {
		r := st.Runs[u]
		if r < 0 {
			return nil, fmt.Errorf("core: negative streak %d for user %s in state for %s", r, u, st.Host)
		}
		if r > 0 {
			streaks = append(streaks, streak{user: j, run: r})
		}
	}
	return &Identifier{
		set:      set,
		streamer: streamer,
		sc:       sc,
		k:        consecutiveK,
		streaks:  streaks,
		host:     host,
	}, nil
}

// Feed ingests one transaction (timestamps must be non-decreasing) and
// returns the events for any windows completed by its arrival.
func (id *Identifier) Feed(tx weblog.Transaction) ([]Event, error) {
	if tx.SourceIP != id.host {
		return nil, fmt.Errorf("core: transaction from %s fed to identifier for %s", tx.SourceIP, id.host)
	}
	ws, err := id.streamer.Add(tx)
	if err != nil {
		return nil, err
	}
	return id.classify(ws), nil
}

// Flush completes the pending windows at end of stream.
func (id *Identifier) Flush() []Event {
	return id.classify(id.streamer.Close())
}

func (id *Identifier) classify(ws []features.Window) []Event {
	if len(ws) == 0 {
		return nil
	}
	users := id.sc.users
	events := make([]Event, 0, len(ws))
	for i := range ws {
		ev := Event{Window: ws[i]}
		mask := id.sc.acceptMask(ws[i].Vector)
		// Merge the ascending streak list against the mask into the
		// shard's scratch: accepting users extend their run (or start
		// one), every other streak ends.
		next, old := id.sc.streaks[:0], id.streaks
		for j, accepted := range mask {
			if !accepted {
				continue
			}
			for len(old) > 0 && old[0].user < j {
				old = old[1:]
			}
			run := 1
			if len(old) > 0 && old[0].user == j {
				run += old[0].run
			}
			next = append(next, streak{user: j, run: run})
			ev.Accepted = append(ev.Accepted, users[j])
		}
		id.sc.streaks = next
		id.streaks = append(id.streaks[:0], next...)
		// Deterministic winner: longest current run ≥ k, ties broken by
		// user id (users are sorted, strict > keeps the first).
		bestRun := 0
		for _, sk := range id.streaks {
			if sk.run >= id.k && sk.run > bestRun {
				bestRun = sk.run
				ev.Identified = users[sk.user]
			}
		}
		events = append(events, ev)
	}
	return events
}
