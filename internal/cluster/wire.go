package cluster

import (
	"errors"
	"fmt"
	"io"

	"webtxprofile/internal/core"
	"webtxprofile/internal/weblog"
)

// The cluster wire protocol is length-prefixed by weblog's framer (the
// one the state tier's protocol uses too): each frame is a 4-byte
// big-endian payload length followed by one frame in the binary encoding
// of wirecodec.go. Transactions travel inside feed frames as weblog binary
// records, reusing the existing serialization rather than inventing a new
// one; device state never travels on this wire — moves go through the
// state tier. Every payload starts with a magic byte and a version byte,
// and the reader refuses any other version with ErrWireVersion: there is one
// encoding and no negotiation, so every peer of a cluster must run the
// same build.
//
// One TCP connection carries both directions: the client writes request
// frames with a non-zero Seq and the node answers each with an "ok" or
// "error" frame echoing that Seq; subscribed connections additionally
// receive unsolicited "alert" frames (Seq 0) interleaved between replies.
// Frames on a connection are written atomically (under a write lock), so
// a reader always sees whole frames in write order.

// MaxFrameBytes caps one frame's payload: the bound of the length-prefix
// framer (weblog.ReadFrame) that this wire shares with the state tier's.
// Feed batches and the device lists of parks and list replies are the
// largest frames, far below it.
const MaxFrameBytes = weblog.MaxFrameBytes

// ErrWireVersion reports a frame this build cannot read: a payload that
// does not start with the binary frame magic (such as the JSON frames of
// older builds) or one carrying a different version byte.
var ErrWireVersion = errors.New("cluster: wire version mismatch (every peer must run the same build)")

// Frame types.
const (
	// FrameHello opens a session: the client names itself and may
	// subscribe to alert pushes. The node replies ok with its own name.
	FrameHello = "hello"
	// FrameFeed carries transactions as weblog binary records; the node
	// feeds them to its monitor and replies ok with the count fed.
	FrameFeed = "feed"
	// FrameExport parks the named devices: the node spills them to its
	// state tier, flushes it, delivers their alerts, and replies ok with
	// the count of devices the move carries. Parking is idempotent, and
	// an empty list parks nothing.
	FrameExport = "export"
	// FrameFlush asks the node to rehydrate the named devices from its
	// state tier, then complete pending windows and deliver every
	// outstanding alert before replying ok.
	FrameFlush = "flush"
	// FrameStats asks for the node's tracked-device count.
	FrameStats = "stats"
	// FrameGossip exchanges router state: the request and its ok reply
	// both carry a GossipState, so one round trip reconciles both peers.
	FrameGossip = "gossip"
	// FrameList asks for the node's tracked device names (live and
	// spilled); the ok reply carries them in Devices.
	FrameList = "list"
	// FrameOK is the success reply; payload fields depend on the request.
	FrameOK = "ok"
	// FrameError is the failure reply; Error carries the message.
	FrameError = "error"
	// FrameAlert is an unsolicited identity-transition push (Seq 0) sent
	// to subscribed connections, tagged with the origin node.
	FrameAlert = "alert"
)

// Frame is the unit of the cluster wire protocol. Exactly the fields
// relevant to a frame's Type are populated; the rest stay at their zero
// values and are omitted from the encoding.
type Frame struct {
	Type string
	// Seq correlates a reply with its request; alert pushes use 0.
	Seq uint64
	// Node names the sender in hello frames and hello replies.
	Node string
	// Subscribe asks (in a hello) for alert pushes on this connection.
	Subscribe bool
	// Txs are the transactions to feed (feed), carried as weblog binary
	// records.
	Txs []weblog.Transaction
	// Devices names the devices to park (export) or to rehydrate before
	// a flush, or lists the devices a node tracks (list reply).
	Devices []string
	// Count reports how many transactions were fed or devices were
	// parked/tracked (ok replies).
	Count int
	// Error is the failure message (error replies).
	Error string
	// Alert is the pushed identity transition (alert frames). Alert
	// frames carry the origin node's alert sequence number in Seq, so a
	// resubscribing client can resume from its last-seen cursor.
	Alert *NodeAlert
	// Client is the caller's stable identity (hello). Named clients get
	// replay dedup: a re-sent feed whose (Client, Seq) was already
	// applied is acknowledged without feeding the monitor twice.
	Client string
	// Cursor is an alert sequence position: in a resuming hello, the last
	// alert Seq the client saw (the node replays newer ring entries); in
	// every hello reply, the node's current alert sequence.
	Cursor uint64
	// Resume marks a reconnect hello: the node replays ring alerts after
	// Cursor instead of starting the subscription fresh.
	Resume bool
	// Replay marks a frame re-sent after a reconnect; the node consults
	// its per-client dedup window before applying it.
	Replay bool
	// Gossip carries router-to-router reconciliation state (gossip frames
	// and their ok replies).
	Gossip *GossipState
}

// NodeAlert is one identity transition observed somewhere in the cluster,
// tagged with the node whose monitor raised it — the fan-in unit the
// router delivers.
type NodeAlert struct {
	// Node names the member whose monitor emitted the alert. During a
	// drain a device's alerts may switch origin (old owner first, new
	// owner after the move); the per-device alert order is preserved
	// across the switch.
	Node  string     `json:"node"`
	Alert core.Alert `json:"alert"`
	// Seq is the origin node's alert sequence number (1-based, per node).
	// (node, seq) identifies an alert instance cluster-wide: replicated
	// subscribers of one node can merge their streams by deduping on it.
	Seq uint64 `json:"seq,omitempty"`
}

// WriteFrame encodes one frame onto w. Callers sharing a connection must
// serialize WriteFrame calls (the protocol requires whole frames in write
// order).
func WriteFrame(w io.Writer, f Frame) error {
	_, err := writeFrame(w, nil, f)
	return err
}

// writeFrame encodes f behind its length prefix into buf (a reusable
// scratch buffer, may be nil) and writes it to w in one call, returning
// the buffer for reuse.
func writeFrame(w io.Writer, buf []byte, f Frame) ([]byte, error) {
	buf, err := AppendBinaryFrame(weblog.AppendFrameHeader(buf[:0]), f)
	if err != nil {
		return buf[:0], err
	}
	if err := weblog.FinishFrame(buf); err != nil {
		return buf[:0], fmt.Errorf("cluster: %s %w", f.Type, err)
	}
	if _, err := w.Write(buf); err != nil {
		return buf[:0], fmt.Errorf("cluster: writing %s frame: %w", f.Type, err)
	}
	return buf[:0], nil
}

// ReadFrame decodes one frame from r. Malformed input — truncated headers
// or payloads, oversized lengths, invalid binary structure, unknown frame
// types — returns an error, never panics (FuzzReadFrame,
// FuzzBinaryFrame); a payload in another wire version returns an error
// wrapping ErrWireVersion. A clean EOF before any header byte returns
// io.EOF unwrapped so callers can detect an orderly connection end.
func ReadFrame(r io.Reader) (Frame, error) {
	payload, err := weblog.ReadFrame(r, nil)
	if err == io.EOF {
		return Frame{}, io.EOF
	}
	if err != nil {
		return Frame{}, fmt.Errorf("cluster: %w", err)
	}
	return decodeBinaryFrame(payload)
}

// errorFrame builds the failure reply for a request.
func errorFrame(seq uint64, err error) Frame {
	return Frame{Type: FrameError, Seq: seq, Error: err.Error()}
}
