package weblog

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"webtxprofile/internal/taxonomy"
)

// splitParseLine is the historic strings.Split-based parser, kept verbatim
// as the reference implementation: the in-place field scanner must accept
// exactly the lines it accepted, reject exactly the lines it rejected, and
// produce identical transactions (FuzzParseLine).
func splitParseLine(line string) (Transaction, error) {
	fields := strings.Split(line, ", ")
	if len(fields) != 11 {
		return Transaction{}, fmt.Errorf("weblog: expected 11 fields, got %d in %q", len(fields), line)
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

// parseLineSeeds are the checked-in FuzzParseLine seeds: valid lines across
// the field variants plus the malformed shapes both parsers must reject
// identically. Kept in code so the testdata corpus is reproducible
// (TestRegenerateParseLineCorpus).
func parseLineSeeds() []string {
	valid := []Transaction{
		{
			Timestamp: time.Date(2015, 5, 29, 5, 5, 4, 0, time.UTC),
			Host:      "www.inlinegames.com", Scheme: taxonomy.SchemeHTTP,
			Action: taxonomy.ActionGet, UserID: "user_9", SourceIP: "10.0.0.9",
			Category:  "Games",
			MediaType: taxonomy.MediaType{Super: "text", Sub: "html"},
			AppType:   "browser", Reputation: taxonomy.MinimalRisk,
		},
		{
			Timestamp: time.Date(2015, 5, 29, 5, 5, 4, 123e6, time.UTC),
			Host:      "intranet.example", Scheme: taxonomy.SchemeHTTPS,
			Action: taxonomy.ActionConnect, UserID: "user_1", SourceIP: "10.0.0.1",
			Reputation: taxonomy.Unverified, Private: true,
		},
		{
			Timestamp: time.Date(2016, 1, 2, 23, 59, 59, 999e6, time.UTC),
			Host:      "cdn.example.org", Scheme: taxonomy.SchemeHTTP,
			Action: taxonomy.ActionPost, UserID: "user_22", SourceIP: "192.168.4.7",
			Category:   "Streaming Media",
			MediaType:  taxonomy.MediaType{Super: "video", Sub: "mp4"},
			Reputation: taxonomy.HighRisk,
		},
	}
	var seeds []string
	for _, tx := range valid {
		seeds = append(seeds, tx.MarshalLine())
	}
	seeds = append(seeds,
		"",                        // no fields
		"a, b",                    // too few fields
		strings.Repeat("x, ", 20), // too many fields
		"not-a-time, h, http, GET, u, s, c, /, , minimal-risk, public",                // bad timestamp
		"2015-05-29 05:05:04.000, h, http, GET, u, s, c, bad, , minimal-risk, public", // bad media type
		"2015-05-29 05:05:04.000, h, http, GET, u, s, c, /, , shady, public",          // bad reputation
		"2015-05-29 05:05:04.000, h, http, GET, u, s, c, /, , minimal-risk, secret",   // bad visibility
		"2015-05-29 05:05:04.000, h, warp, GET, u, s, c, /, , minimal-risk, public",   // bad scheme
		"2015-05-29 05:05:04.000, h, http, YEET, u, s, c, /, , minimal-risk, public",  // bad action
		"2015-05-29 05:05:04.000, , http, GET, u, s, c, /, , minimal-risk, public",    // empty host
		"2015-05-29 05:05:04.000, h,x, http, GET, u, s, c, /, , minimal-risk, public", // embedded comma
		"2015-02-29 05:05:04.000, h, http, GET, u, s, c, /, , minimal-risk, public",   // Feb 29, common year
		"2015-05-29 24:00:00.000, h, http, GET, u, s, c, /, , minimal-risk, public",   // hour 24
		"2015-13-29 05:05:04.000, h, http, GET, u, s, c, /, , minimal-risk, public",   // month 13
	)
	return seeds
}

// TestParseTimestampMatchesTimeParse pins the canonical-layout fast path
// to time.Parse on the shapes it decides itself (in range or not) and on
// the near misses it must hand over: equal times, or equal error text.
func TestParseTimestampMatchesTimeParse(t *testing.T) {
	for _, s := range []string{
		"2015-05-29 05:05:04.000",
		"2015-05-29 05:05:04.999", // .999
		"2016-01-02 23:59:59.999",
		"0000-01-01 00:00:00.000",
		"9999-12-31 23:59:59.999",
		"2016-02-29 12:00:00.000", // leap year
		"2000-02-29 12:00:00.000", // leap century
		"2015-02-29 12:00:00.000", // Feb 29, common year
		"1900-02-29 12:00:00.000", // Feb 29, common century
		"2015-04-31 12:00:00.000", // April 31
		"2015-05-00 12:00:00.000", // day 00
		"2015-05-32 12:00:00.000", // day 32
		"2015-00-10 12:00:00.000", // month 00
		"2015-13-10 12:00:00.000", // month 13
		"2015-05-29 24:00:00.000", // hour 24
		"2015-05-29 23:60:00.000", // minute 60
		"2015-05-29 23:59:60.000", // second 60
		"2015-05-29 05:05:04.00",  // short fraction
		"2015-05-29 05:05:04.0000",
		"2015-05-29 05:05:04",
		"2015-05-29T05:05:04.000",
		"2015-0a-29 05:05:04.000",
		"+015-05-29 05:05:04.000",
		"2015-05-29 5:05:04.0000",
		"2015-05-29 05:05:04,000",
		"",
	} {
		got, gotErr := parseTimestamp(s)
		want, wantErr := time.Parse(timeLayout, s)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("%q: error %v, time.Parse %v", s, gotErr, wantErr)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: %v, time.Parse %v", s, got, want)
		}
	}
}

// FuzzParseLine pins parse parity between the in-place field scanner and
// the historic Split-based parser, and the marshal round trip: any line
// either parser accepts must produce the same transaction from both, and
// re-marshaling that transaction must re-parse to itself.
func FuzzParseLine(f *testing.F) {
	for _, seed := range parseLineSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		got, gotErr := ParseLine(line)
		want, wantErr := splitParseLine(line)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("parser parity broke on %q:\n scanner: %v, %v\n   split: %v, %v",
				line, got, gotErr, want, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error parity broke on %q:\n scanner: %v\n   split: %v", line, gotErr, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parse parity broke on %q:\n scanner: %+v\n   split: %+v", line, got, want)
		}
		back, err := ParseLine(got.MarshalLine())
		if err != nil {
			t.Fatalf("re-marshaled line does not parse: %v", err)
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("marshal round trip drifted:\n first: %+v\nsecond: %+v", got, back)
		}
	})
}

// TestRegenerateParseLineCorpus rewrites testdata/fuzz/FuzzParseLine from
// parseLineSeeds when WTP_REGEN_CORPUS=1, so the checked-in corpus never
// drifts from the format. Normally it only verifies the files exist.
func TestRegenerateParseLineCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzParseLine")
	if os.Getenv("WTP_REGEN_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		old, err := filepath.Glob(filepath.Join(dir, "seed-*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range old {
			os.Remove(f)
		}
		for i, seed := range parseLineSeeds() {
			body := fmt.Sprintf("go test fuzz v1\nstring(%q)\n", seed)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz corpus missing (run with WTP_REGEN_CORPUS=1 to create): %v", err)
	}
	if len(entries) < len(parseLineSeeds()) {
		t.Errorf("corpus has %d entries, want >= %d", len(entries), len(parseLineSeeds()))
	}
}

// TestParseLineAllocs gates the scanner's allocation budget: parsing a
// stable line string must not allocate at all in steady state.
func TestParseLineAllocs(t *testing.T) {
	line := parseLineSeeds()[0]
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := ParseLine(line); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Errorf("ParseLine allocates %.1f times per line, want 0", avg)
	}
}
