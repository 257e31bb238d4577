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
	ts, err := parseTimestamp(fields[0])
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

// parseTimestamp is time.Parse(timeLayout, s) with a fast path for the
// canonical rendering MarshalLine writes: exactly 23 bytes, every digit
// in place, every field in range. Anything else — including a canonical
// shape with an out-of-range field, such as Feb 29 in a common year or
// hour 24 — goes to time.Parse, so results and error text are unchanged.
func parseTimestamp(s string) (time.Time, error) {
	if len(s) != len(timeLayout) || s[4] != '-' || s[7] != '-' || s[10] != ' ' ||
		s[13] != ':' || s[16] != ':' || s[19] != '.' {
		return time.Parse(timeLayout, s)
	}
	// num reads the digits s[i:j] as a number, or -1 if one is not a digit.
	num := func(i, j int) int {
		n := 0
		for ; i < j; i++ {
			d := s[i] - '0'
			if d > 9 {
				return -1
			}
			n = 10*n + int(d)
		}
		return n
	}
	year, month, day := num(0, 4), num(5, 7), num(8, 10)
	hour, minute, sec, ms := num(11, 13), num(14, 16), num(17, 19), num(20, 23)
	if year < 0 || month < 1 || month > 12 || day < 1 || day > daysIn(time.Month(month), year) ||
		hour < 0 || hour > 23 || minute < 0 || minute > 59 || sec < 0 || sec > 59 || ms < 0 {
		return time.Parse(timeLayout, s)
	}
	return time.Date(year, time.Month(month), day, hour, minute, sec, ms*int(time.Millisecond), time.UTC), nil
}

// monthDays is the length of each month of a common year.
var monthDays = [12]int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

// daysIn returns the number of days in month m of year.
func daysIn(m time.Month, year int) int {
	if m == time.February && year%4 == 0 && (year%100 != 0 || year%400 == 0) {
		return 29
	}
	return monthDays[m-1]
}

// parseMediaTypeField tolerates the "super/" empty rendering of the zero
// MediaType that MarshalLine produces ("/" for a zero value).
func parseMediaTypeField(s string) (taxonomy.MediaType, error) {
	if s == "/" || s == "" {
		return taxonomy.MediaType{}, nil
	}
	return taxonomy.ParseMediaType(s)
}
