package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"webtxprofile/internal/core"
	"webtxprofile/internal/weblog"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameHello, Seq: 1, Node: "router-1", Subscribe: true},
		{Type: FrameFeed, Seq: 2, Txs: []weblog.Transaction{binarySeedTx(), binarySeedTx()}},
		{Type: FrameExport, Seq: 3, Devices: []string{"10.0.0.1", "10.0.0.2"}},
		{Type: FrameImport, Seq: 4, Blob: []byte{0x1f, 0x8b, 0x00, 0xff}},
		{Type: FrameFlush, Seq: 5},
		{Type: FrameStats, Seq: 6},
		{Type: FrameOK, Seq: 7, Count: 42, Blob: []byte("state")},
		{Type: FrameError, Seq: 8, Error: "boom"},
		{Type: FrameAlert, Alert: &NodeAlert{Node: "n1", Alert: core.Alert{
			Device: "10.0.0.1", Kind: core.AlertIdentified, User: "user_3", Previous: "user_1",
		}}},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("WriteFrame(%s): %v", f.Type, err)
		}
	}
	for _, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame(%s): %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip changed frame:\n got %+v\nwant %+v", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsMalformed(t *testing.T) {
	header := func(n uint32) []byte {
		var h [4]byte
		binary.BigEndian.PutUint32(h[:], n)
		return h[:]
	}
	type malformed struct {
		name string
		data []byte
		want string // substring of the error, or "" for ErrWireVersion
	}
	cases := []malformed{
		{"zero length", header(0), "zero-length"},
		{"oversize length", header(MaxFrameBytes + 1), "exceeds limit"},
		{"truncated header", []byte{0, 0}, "frame header"},
		{"truncated payload", append(header(10), binaryMagic, wireVersion), "payload"},
		{"invalid json", append(header(4), []byte("nope")...), ""},
		{"foreign version", append(header(4), binaryMagic, wireVersion+1, 0x01, 0x01), ""},
		{"old version", append(header(4), binaryMagic, wireVersion-1, 0x01, 0x01), ""},
		{"truncated frame header", append(header(2), binaryMagic, wireVersion), "truncated frame header"},
		{"unknown type", append(header(4), binaryMagic, wireVersion, 0x63, 0x01), "unknown binary frame type"},
		{"empty type", append(header(4), binaryMagic, wireVersion, 0x00, 0x01), "unknown binary frame type"},
	}
	for i, payload := range legacyJSONFrames {
		cases = append(cases, malformed{fmt.Sprintf("legacy json %d", i), lengthPrefixed(payload), ""})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFrame(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("malformed frame accepted")
			}
			if err == io.EOF {
				t.Fatal("malformed frame reported as clean EOF")
			}
			if tc.want == "" {
				if !errors.Is(err, ErrWireVersion) {
					t.Errorf("error %q is not ErrWireVersion", err)
				}
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	f := Frame{Type: FrameImport, Blob: make([]byte, MaxFrameBytes)}
	if err := WriteFrame(io.Discard, f); err == nil {
		t.Error("oversize frame written")
	}
}
