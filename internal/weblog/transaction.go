// Package weblog models web transaction logs as produced by the paper's
// secure proxy: one record per HTTP(S) transaction, augmented by the
// logging service with website category, application type, media type and
// URL reputation (Sect. III-A). It provides the on-disk log-line format,
// streaming readers and writers, and an in-memory dataset with the
// per-user and per-host views the profiling pipeline needs.
package weblog

import (
	"fmt"
	"strings"
	"time"

	"webtxprofile/internal/taxonomy"
)

// Transaction is one logged web transaction. Fields mirror the log excerpt
// in Sect. III-A of the paper:
//
//	2015-05-29 05:05:04, www.inlinegames.com, HTTP/1.0, GET, user_9,
//	Games, text/html, ...
//
// extended with the source host (device) identity that host-specific
// windowing requires, and the augmentation fields used for features.
type Transaction struct {
	// Timestamp is when the proxy observed the transaction.
	Timestamp time.Time
	// Host is the requested server name (target of the single-URL
	// transaction).
	Host string
	// Scheme is the URI scheme: taxonomy.SchemeHTTP or SchemeHTTPS.
	Scheme string
	// Action is the HTTP action: GET, POST, CONNECT or HEAD.
	Action string
	// UserID identifies the authenticated user (e.g. "user_9").
	UserID string
	// SourceIP identifies the device the request came from; host-specific
	// windowing aggregates on this field.
	SourceIP string
	// Category is the website category assigned by the logging service.
	Category string
	// MediaType is the response media type; may be zero (e.g. CONNECT).
	MediaType taxonomy.MediaType
	// AppType is the application running on the target resource; may be
	// empty when the service has no application knowledge.
	AppType string
	// Reputation is the URL reputation assigned by the logging service.
	Reputation taxonomy.Reputation
	// Private marks requests to internal-network (private) destinations.
	Private bool
}

// Validate checks structural integrity of the record. It does not check
// taxonomy membership; unknown labels are permitted (the feature
// vocabulary is data-driven).
func (t Transaction) Validate() error {
	if t.Timestamp.IsZero() {
		return fmt.Errorf("weblog: transaction has zero timestamp")
	}
	if t.Host == "" {
		return fmt.Errorf("weblog: transaction has empty host")
	}
	switch t.Scheme {
	case taxonomy.SchemeHTTP, taxonomy.SchemeHTTPS:
	default:
		return fmt.Errorf("weblog: unknown scheme %q", t.Scheme)
	}
	switch t.Action {
	case taxonomy.ActionGet, taxonomy.ActionPost, taxonomy.ActionConnect, taxonomy.ActionHead:
	default:
		return fmt.Errorf("weblog: unknown action %q", t.Action)
	}
	if t.UserID == "" {
		return fmt.Errorf("weblog: transaction has empty user id")
	}
	if t.SourceIP == "" {
		return fmt.Errorf("weblog: transaction has empty source ip")
	}
	if !t.Reputation.Valid() {
		return fmt.Errorf("weblog: invalid reputation %d", int(t.Reputation))
	}
	// One byte loop over the free-text fields, without allocating. Both
	// delimiters are ASCII, which never occurs inside a multi-byte UTF-8
	// sequence, so this rejects exactly what strings.ContainsAny(f, ",\n")
	// does, without building its character set on every call.
	for _, f := range [...]string{t.Host, t.UserID, t.SourceIP, t.Category, t.AppType} {
		for i := 0; i < len(f); i++ {
			if f[i] == ',' || f[i] == '\n' {
				return fmt.Errorf("weblog: field contains log delimiter")
			}
		}
	}
	return nil
}

// timeLayout is the on-disk timestamp format. Millisecond precision keeps
// sub-second ordering stable across a round-trip.
const timeLayout = "2006-01-02 15:04:05.000"

// visibility tokens for the private-destination flag.
const (
	visPublic  = "public"
	visPrivate = "private"
)

// MarshalLine renders the transaction as one log line (no trailing
// newline). Field order:
//
//	timestamp, host, scheme, action, user, source-ip, category,
//	media-type, application-type, reputation, visibility
func (t Transaction) MarshalLine() string {
	vis := visPublic
	if t.Private {
		vis = visPrivate
	}
	return strings.Join([]string{
		t.Timestamp.UTC().Format(timeLayout),
		t.Host,
		t.Scheme,
		t.Action,
		t.UserID,
		t.SourceIP,
		t.Category,
		t.MediaType.String(),
		t.AppType,
		t.Reputation.String(),
		vis,
	}, ", ")
}

// numLineFields is the field count of the log-line format.
const numLineFields = 11

// splitLineFields scans the ", "-separated fields of a log line in place:
// the returned fields alias line's backing memory, so the steady-state
// ingest path pays no per-line []string (or per-field string) allocation
// the way strings.Split does. The separator semantics match strings.Split
// exactly — non-overlapping, left to right — and the total field count is
// reported even when it exceeds the fixed array, so error messages agree
// with the historic Split-based parser (FuzzParseLine pins that parity).
func splitLineFields(line string) (fields [numLineFields]string, n int) {
	rest := line
	for {
		j := strings.Index(rest, ", ")
		if j < 0 {
			break
		}
		if n < numLineFields {
			fields[n] = rest[:j]
		}
		n++
		rest = rest[j+2:]
	}
	if n < numLineFields {
		fields[n] = rest
	}
	n++
	return fields, n
}

// ParseLine parses one log line produced by MarshalLine. The string fields
// of the returned transaction alias line's backing memory rather than
// copying it — callers that retain transactions past the lifetime of a
// reused line buffer must pass a stable string (the collector converts
// each wire line to a fresh string, which is the feed path's single
// steady-state allocation per transaction).
func ParseLine(line string) (Transaction, error) {
	fields, n := splitLineFields(line)
	if n != numLineFields {
		return Transaction{}, fmt.Errorf("weblog: expected 11 fields, got %d in %q", n, line)
	}
	ts, err := time.Parse(timeLayout, fields[0])
	if err != nil {
		return Transaction{}, fmt.Errorf("weblog: bad timestamp: %w", err)
	}
	mt, err := parseMediaTypeField(fields[7])
	if err != nil {
		return Transaction{}, err
	}
	rep, err := taxonomy.ParseReputation(fields[9])
	if err != nil {
		return Transaction{}, err
	}
	var private bool
	switch fields[10] {
	case visPublic:
	case visPrivate:
		private = true
	default:
		return Transaction{}, fmt.Errorf("weblog: bad visibility %q", fields[10])
	}
	tx := Transaction{
		Timestamp:  ts,
		Host:       fields[1],
		Scheme:     fields[2],
		Action:     fields[3],
		UserID:     fields[4],
		SourceIP:   fields[5],
		Category:   fields[6],
		MediaType:  mt,
		AppType:    fields[8],
		Reputation: rep,
		Private:    private,
	}
	if err := tx.Validate(); err != nil {
		return Transaction{}, err
	}
	return tx, nil
}

// parseMediaTypeField tolerates the "super/" empty rendering of the zero
// MediaType that MarshalLine produces ("/" for a zero value).
func parseMediaTypeField(s string) (taxonomy.MediaType, error) {
	if s == "/" || s == "" {
		return taxonomy.MediaType{}, nil
	}
	return taxonomy.ParseMediaType(s)
}
