package statestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"webtxprofile/internal/core"
)

// manualFlush is a client config whose write-behind machinery never fires
// on its own: only explicit Flush calls push the queue, so a test controls
// exactly when a client's writes reach the server.
var manualFlush = ClientConfig{
	FlushCount: 1 << 30,
	FlushAge:   time.Hour,
	RPCTimeout: 5 * time.Second,
}

func startServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	s, err := ListenServer("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dialServer(t *testing.T, s *Server, cfg ClientConfig) *Client {
	t.Helper()
	c, err := Dial(s.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mustPut(t *testing.T, c *Client, device string, blob []byte) {
	t.Helper()
	if err := c.Put(device, blob); err != nil {
		t.Fatalf("put %s: %v", device, err)
	}
}

func mustGet(t *testing.T, c *Client, device string) ([]byte, bool) {
	t.Helper()
	blob, ok, err := c.Get(device)
	if err != nil {
		t.Fatalf("get %s: %v", device, err)
	}
	return blob, ok
}

func TestClientServerRoundTrip(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	c := dialServer(t, srv, manualFlush)

	blobs := map[string][]byte{}
	for i := 0; i < 5; i++ {
		d := fmt.Sprintf("dev-%d", i)
		blobs[d] = []byte(fmt.Sprintf("state-%d", i))
		mustPut(t, c, d, blobs[d])
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Len(); got != 5 {
		t.Fatalf("server holds %d devices, want 5", got)
	}

	// A second client sees the flushed state through the server.
	c2 := dialServer(t, srv, manualFlush)
	for d, want := range blobs {
		got, ok := mustGet(t, c2, d)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("device %s: got %q ok=%v, want %q", d, got, ok, want)
		}
	}
	devices, err := c2.Devices()
	if err != nil {
		t.Fatal(err)
	}
	if len(devices) != 5 {
		t.Fatalf("Devices lists %d, want 5: %v", len(devices), devices)
	}

	if err := c2.Delete("dev-0"); err != nil {
		t.Fatal(err)
	}
	if _, ok := mustGet(t, c2, "dev-0"); ok {
		t.Fatal("dev-0 still found after delete")
	}
	if got := srv.Len(); got != 4 {
		t.Fatalf("server holds %d devices after delete, want 4", got)
	}
	devices, err = c2.Devices()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devices {
		if d == "dev-0" {
			t.Fatal("Devices still lists dev-0 after delete")
		}
	}
}

func TestWriteBehindFlushesByCount(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	c := dialServer(t, srv, ClientConfig{FlushCount: 4, FlushAge: time.Hour})

	for i := 0; i < 4; i++ {
		mustPut(t, c, fmt.Sprintf("dev-%d", i), []byte("x"))
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Len() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("count-triggered flush never reached the server (%d/4 devices)", srv.Len())
		}
		time.Sleep(time.Millisecond)
	}
	if st := c.Stats(); st.FlushedPuts < 4 {
		t.Fatalf("FlushedPuts = %d, want >= 4", st.FlushedPuts)
	}
}

func TestWriteBehindFlushesByAge(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	c := dialServer(t, srv, ClientConfig{FlushCount: 1 << 30, FlushAge: 10 * time.Millisecond})

	mustPut(t, c, "dev", []byte("x"))
	deadline := time.Now().Add(5 * time.Second)
	for srv.Len() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("age-triggered flush never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGetReadsThroughDirtyQueue(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	c := dialServer(t, srv, manualFlush)

	mustPut(t, c, "dev", []byte("v1"))
	mustPut(t, c, "dev", []byte("v2")) // coalesces
	got, ok := mustGet(t, c, "dev")
	if !ok || string(got) != "v2" {
		t.Fatalf("dirty read-through: got %q ok=%v, want v2", got, ok)
	}
	if gets := srv.Stats().Gets; gets != 0 {
		t.Fatalf("server saw %d gets for a dirty-queue hit, want 0", gets)
	}
	// The queued entry lists locally before any flush.
	devices, err := c.Devices()
	if err != nil {
		t.Fatal(err)
	}
	if len(devices) != 1 || devices[0] != "dev" {
		t.Fatalf("Devices = %v, want [dev]", devices)
	}
}

func TestPutFailsFastWhenQueueFull(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	c := dialServer(t, srv, ClientConfig{FlushCount: 1 << 30, FlushAge: time.Hour, MaxPending: 2})

	mustPut(t, c, "a", []byte("x"))
	mustPut(t, c, "b", []byte("x"))
	if err := c.Put("c", []byte("x")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("put at MaxPending: got %v, want ErrQueueFull", err)
	}
	// Coalescing into an existing entry still works at the bound.
	mustPut(t, c, "a", []byte("y"))
	if st := c.Stats(); st.QueueFull != 1 {
		t.Fatalf("QueueFull = %d, want 1", st.QueueFull)
	}
}

func TestDeleteDropsQueuedWrite(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	c := dialServer(t, srv, manualFlush)

	mustPut(t, c, "dev", []byte("doomed"))
	if err := c.Delete("dev"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := mustGet(t, c, "dev"); ok {
		t.Fatal("deleted device resurrected by a later flush")
	}
	if got := srv.Len(); got != 0 {
		t.Fatalf("server holds %d devices, want 0", got)
	}
}

// TestVersionFenceProperty is the write-behind versioning property test:
// an old owner (client A) holds a delayed queued write for every device —
// at most one per device, which is what the monitor's
// spill → rehydrate → Delete cycle structurally guarantees — while the
// new owner (client B) runs the takeover sequence (Get, Delete, Put,
// Flush). A's Flush is injected at a random point of B's sequence, across
// many seeded interleavings. Whatever the interleaving, the server must
// end holding B's final write: a stale flush can never clobber a newer
// owner's state.
func TestVersionFenceProperty(t *testing.T) {
	const seeds = 30
	const devices = 4
	var totalStaleDrops uint64

	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			srv := startServer(t, ServerConfig{})
			a := dialServer(t, srv, manualFlush)
			b := dialServer(t, srv, manualFlush)

			devs := make([]string, devices)
			for i := range devs {
				devs[i] = fmt.Sprintf("dev-%d", i)
			}

			// A's history: some devices were spilled and flushed before the
			// takeover (the store already holds A's old state), and every
			// device has one more queued write that has not flushed yet.
			for _, d := range devs {
				if rng.Intn(2) == 0 {
					mustPut(t, a, d, []byte("A-old:"+d))
					if err := a.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				mustPut(t, a, d, []byte("A-stale:"+d))
			}

			// B's takeover: per device Get (restore), Delete (consume), Put
			// (B's own spill later), then one final Flush. A's delayed Flush
			// lands at a random position in that op sequence.
			type op func()
			var ops []op
			for _, d := range devs {
				d := d
				ops = append(ops,
					func() { b.Get(d) },
					func() {
						if err := b.Delete(d); err != nil {
							t.Fatal(err)
						}
					},
					func() { mustPut(t, b, d, []byte("B-final:"+d)) },
				)
			}
			ops = append(ops, func() {
				if err := b.Flush(); err != nil {
					t.Fatal(err)
				}
			})
			pos := rng.Intn(len(ops) + 1)
			ops = append(ops[:pos], append([]op{func() { a.Flush() }}, ops[pos:]...)...)
			for _, o := range ops {
				o()
			}
			// Drain both ends regardless of where the injected flushes fell.
			a.Flush()
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}

			check := dialServer(t, srv, manualFlush)
			for _, d := range devs {
				got, ok := mustGet(t, check, d)
				want := "B-final:" + d
				if !ok || string(got) != want {
					t.Fatalf("device %s: server holds %q ok=%v, want %q (stale flush clobbered the takeover)",
						d, got, ok, want)
				}
			}
			totalStaleDrops += srv.Stats().StaleDrops + a.Stats().StaleDrops
		})
	}
	if totalStaleDrops == 0 {
		t.Fatal("no interleaving exercised the versioning fence — the property test proves nothing")
	}
}

// TestBackingDurability proves the tier survives a server restart when
// backed by a disk store: blobs and the per-device version fence both
// come back.
func TestBackingDurability(t *testing.T) {
	dir := t.TempDir()
	backing, err := core.NewDiskStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, ServerConfig{Backing: backing})
	c := dialServer(t, srv, manualFlush)

	// Three put+flush rounds walk dev-a to version 3.
	for i := 1; i <= 3; i++ {
		mustPut(t, c, "dev-a", []byte(fmt.Sprintf("a-v%d", i)))
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	mustPut(t, c, "dev-b", []byte("b-v1"))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("dev-b"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Close()

	backing2, err := core.NewDiskStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := startServer(t, ServerConfig{Backing: backing2})
	if got := srv2.Len(); got != 1 {
		t.Fatalf("restarted server holds %d devices, want 1", got)
	}
	c2 := dialServer(t, srv2, manualFlush)
	got, ok := mustGet(t, c2, "dev-a")
	if !ok || string(got) != "a-v3" {
		t.Fatalf("dev-a after restart: %q ok=%v, want a-v3", got, ok)
	}

	// The version fence survived the restart: a fresh client's first Put
	// (version 1) is stale against the restored version 3 and must drop.
	fresh := dialServer(t, srv2, manualFlush)
	mustPut(t, fresh, "dev-a", []byte("imposter"))
	if err := fresh.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, _ := mustGet(t, c2, "dev-a"); string(got) != "a-v3" {
		t.Fatalf("restored fence did not drop the stale write: server holds %q", got)
	}
	if fresh.Stats().StaleDrops == 0 {
		t.Fatal("fresh client saw no stale drop")
	}
	// The drop taught the client the version in force; its next write wins.
	mustPut(t, fresh, "dev-a", []byte("a-v4"))
	if err := fresh.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, _ := mustGet(t, c2, "dev-a"); string(got) != "a-v4" {
		t.Fatalf("post-drop write did not land: server holds %q", got)
	}
}

// TestBackingDropsUnenvelopedBlob: a backing blob without the version
// envelope — device state a plain -state-dir daemon wrote — is neither
// loaded nor kept: the server deletes it from the backing store at start
// and logs the drop once, while enveloped devices load as before.
func TestBackingDropsUnenvelopedBlob(t *testing.T) {
	dir := t.TempDir()
	plain, err := core.NewDiskStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := core.EncodeDeviceState(core.DeviceState{Device: "dev-plain"})
	for _, d := range []string{"dev-plain", "dev-plain-2"} {
		if err := plain.Put(d, state); err != nil {
			t.Fatal(err)
		}
	}
	if err := plain.Put("dev-tier", appendEnvelope(nil, 4, []byte("tier-state"))); err != nil {
		t.Fatal(err)
	}

	backing, err := core.NewDiskStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	srv := startServer(t, ServerConfig{Backing: backing, ErrorLog: log.New(&logged, "", 0)})
	if got := srv.Len(); got != 1 {
		t.Fatalf("server loaded %d devices, want only the enveloped one", got)
	}
	c := dialServer(t, srv, manualFlush)
	if got, ok := mustGet(t, c, "dev-plain"); ok {
		t.Fatalf("unenveloped blob loaded: %q", got)
	}
	if got, ok := mustGet(t, c, "dev-tier"); !ok || string(got) != "tier-state" {
		t.Fatalf("enveloped blob: %q ok=%v, want tier-state", got, ok)
	}
	if devices, err := backing.Devices(); err != nil || len(devices) != 1 || devices[0] != "dev-tier" {
		t.Fatalf("backing store after start lists %v, %v; want only dev-tier", devices, err)
	}
	if lines := strings.Count(logged.String(), "\n"); lines != 1 || !strings.Contains(logged.String(), "dropped 2 ") {
		t.Fatalf("drop logged as %q, want one line counting 2 blobs", logged.String())
	}
}

// TestClientRedialsAfterConnectionLoss drops the client's connection out
// from under it and checks the next RPC transparently redials.
func TestClientRedialsAfterConnectionLoss(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	c := dialServer(t, srv, manualFlush)

	mustPut(t, c, "dev", []byte("v1"))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	c.rpcMu.Lock()
	c.conn.Close()
	c.rpcMu.Unlock()

	mustPut(t, c, "dev", []byte("v2"))
	if err := c.Flush(); err != nil {
		t.Fatalf("flush after connection loss: %v", err)
	}
	c2 := dialServer(t, srv, manualFlush)
	if got, _ := mustGet(t, c2, "dev"); string(got) != "v2" {
		t.Fatalf("server holds %q after redial, want v2", got)
	}
}

// TestServerRejectsMalformedFrame speaks garbage to the server directly:
// the reply is an in-band error and the connection is dropped, never a
// crash or a hang.
func TestServerRejectsMalformedFrame(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	// Valid length prefix, garbage payload.
	if _, err := conn.Write([]byte{0, 0, 0, 3, 0xde, 0xad, 0xbf}); err != nil {
		t.Fatal(err)
	}
	var lenBuf [4]byte
	if _, err := readFull(conn, lenBuf[:]); err != nil {
		t.Fatalf("reading error reply length: %v", err)
	}
	n := int(lenBuf[0])<<24 | int(lenBuf[1])<<16 | int(lenBuf[2])<<8 | int(lenBuf[3])
	payload := make([]byte, n)
	if _, err := readFull(conn, payload); err != nil {
		t.Fatalf("reading error reply: %v", err)
	}
	resp, err := decodeMessage(payload)
	if err != nil {
		t.Fatalf("decoding error reply: %v", err)
	}
	if resp.op != opErr {
		t.Fatalf("reply op = 0x%02x, want opErr", resp.op)
	}
	// The server hangs up after an in-band error.
	if _, err := conn.Read(lenBuf[:]); err == nil {
		t.Fatal("connection still open after malformed frame")
	}
}

func readFull(conn net.Conn, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := conn.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// TestWireRoundTrip pushes every op's message shape through
// encode/decode over seeded random content.
func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for i, m := range wireSampleMessages(randBytes) {
		enc, err := appendMessage(nil, m)
		if err != nil {
			t.Fatalf("msg %d: encode: %v", i, err)
		}
		dec, err := decodeMessage(enc)
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		if fmt.Sprintf("%+v", dec) != fmt.Sprintf("%+v", m) {
			t.Fatalf("msg %d round trip:\n got %+v\nwant %+v", i, dec, m)
		}
		// Trailing garbage must not decode.
		if _, err := decodeMessage(append(enc, 0)); err == nil {
			t.Fatalf("msg %d: trailing byte accepted", i)
		}
	}

	for n := 0; n < 50; n++ {
		ver := rng.Uint64()
		blob := randBytes(rng.Intn(200))
		env := appendEnvelope(nil, ver, blob)
		gotVer, gotBlob, ok := decodeEnvelope(env)
		if !ok || gotVer != ver || !bytes.Equal(gotBlob, blob) {
			t.Fatalf("envelope round trip: ver %d ok=%v", gotVer, ok)
		}
	}
	if _, _, ok := decodeEnvelope([]byte(`{"json":"plain state"}`)); ok {
		t.Fatal("plain JSON decoded as an envelope")
	}
	if _, _, ok := decodeEnvelope(core.EncodeDeviceState(core.DeviceState{Device: "10.0.0.1"})); ok {
		t.Fatal("plain binary device state decoded as an envelope")
	}
}

// TestDecodeHostilePutBatchAllocs: a put batch whose count claims one
// entry per remaining byte is refused before the decoder reserves room
// for that many entries. Every entry takes at least 3 bytes, so the count
// is checked against that; the decoder may copy the payload once, but
// must not allocate twice its size.
func TestDecodeHostilePutBatchAllocs(t *testing.T) {
	const n = 1 << 20
	payload := binary.AppendUvarint([]byte{wireMagic, wireVersion, opPut, 0x01}, n)
	payload = append(payload, make([]byte, n)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeMessage(payload)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a put batch of more entries than its bytes can hold decoded")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2*uint64(len(payload)) {
		t.Errorf("decoding a %d-byte hostile put batch allocated %d bytes (%.1fx), want < 2x",
			len(payload), alloc, float64(alloc)/float64(len(payload)))
	}
}

// wireSampleMessages is one message of every op's shape, blobs drawn
// from randBytes: TestWireRoundTrip's inputs and FuzzStateMessage's
// well-formed seeds.
func wireSampleMessages(randBytes func(n int) []byte) []message {
	return []message{
		{op: opPut, seq: 1, puts: []putEntry{
			{device: "a", ver: 1, blob: randBytes(0)},
			{device: "device/with=odd:chars", ver: 1 << 40, blob: randBytes(300)},
		}},
		{op: opGet, seq: 2, device: "dev"},
		{op: opDelete, seq: 3, device: ""},
		{op: opList, seq: 4},
		{op: opPutOK, seq: 5, vers: []uint64{0, 1, 1 << 50}},
		{op: opGetOK, seq: 6, found: true, ver: 9, blob: randBytes(64)},
		{op: opGetOK, seq: 7, found: false, ver: 3},
		{op: opDeleteOK, seq: 8, ver: 12},
		{op: opListOK, seq: 9, devices: []string{"a", "b", "c"}},
		{op: opListOK, seq: 10},
		{op: opErr, seq: 11, errMsg: "boom"},
	}
}
