package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"epidemic/internal/core"
	"epidemic/internal/node"
	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// wireNode builds a node with a clock suitable for wire tests.
func wireNode(t *testing.T, site timestamp.SiteID, src *timestamp.Simulated) *node.Node {
	t.Helper()
	n, err := node.New(node.Config{
		Site:  site,
		Clock: src.ClockAt(site),
		Rumor: core.RumorConfig{K: 3, Counter: true, Feedback: true, Mode: core.PushPull},
		Resolve: core.ResolveConfig{
			Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 1 << 40,
		},
		Seed: int64(site),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestServerRefusesForeignOpenings opens connections the way older builds
// and strangers would — a version-5 hello, a hello-less length-prefixed
// frame (the old legacy dialect), and bytes that are no hello at all —
// each followed by a well-formed mail frame. The server must serve none of
// them and close each connection; a hello naming another version is
// answered with this build's version first. A real client still works.
func TestServerRefusesForeignOpenings(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	n := wireNode(t, 1, src)
	srv, err := Serve(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var served atomic.Int64
	srv.SetObserver(func(string, time.Duration) { served.Add(1) })

	for _, tc := range []struct {
		name    string
		opening []byte
		frame   bool   // follow the opening with a well-formed mail frame
		answer  []byte // what the server writes before closing
	}{
		// A hello alone, so the server's answer is not raced by a reset.
		{"v5-hello", []byte{'E', 'P', 'G', 5}, false, []byte{wireVersion}},
		{"legacy-frame", nil, true, nil},
		{"not-epg", []byte("GET / HTTP/1.0\r\n\r\n"), true, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			msg := append([]byte(nil), tc.opening...)
			if tc.frame {
				req := request{Kind: reqMail, Entries: []store.Entry{
					{Key: tc.name, Value: store.Value("v"), Stamp: timestamp.T{Time: 1, Site: 2}},
				}}
				payload := appendRequest(nil, &req)
				msg = binary.BigEndian.AppendUint32(msg, uint32(len(payload)))
				msg = append(msg, payload...)
			}
			if _, err := conn.Write(msg); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			got, err := io.ReadAll(conn)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("server kept the connection open")
			}
			// Unread bytes at close may turn the FIN into a reset, which
			// also closes the connection; only a clean close shows the answer.
			if err == nil && !bytes.Equal(got, tc.answer) {
				t.Errorf("server wrote %v before closing, want %v", got, tc.answer)
			}
			if _, ok := n.Lookup(tc.name); ok {
				t.Error("the refused connection's mail was applied")
			}
		})
	}
	if got := served.Load(); got != 0 {
		t.Fatalf("server served %d requests on refused connections", got)
	}

	peer := NewTCPPeer(1, srv.Addr())
	defer peer.Close()
	if err := peer.Mail(store.Entry{Key: "k", Value: store.Value("v"), Stamp: timestamp.T{Time: 1, Site: 2}}, trace.Hop{}); err != nil {
		t.Fatalf("well-formed client after refusals: %v", err)
	}
	if _, ok := n.Lookup("k"); !ok {
		t.Fatal("mail from a well-formed client not applied")
	}
}

// TestClientRejectsOtherWireVersion points a peer at a server that answers
// the hello with version 5: every request must fail with an error naming
// both versions, and the pool must not keep the session.
func TestClientRejectsOtherWireVersion(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		var hello [4]byte
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			return
		}
		_, _ = conn.Write([]byte{5})
		_, _ = io.Copy(io.Discard, conn) // hold the connection until the client drops it
	})
	stats := &WireStats{}
	peer := NewTCPPeerWith(1, addr, PeerOptions{Timeout: time.Second, Stats: stats})
	defer peer.Close()
	e := store.Entry{Key: "k", Value: store.Value("v"), Stamp: timestamp.T{Time: 1, Site: 2}}
	for i := 0; i < 2; i++ {
		err := peer.Mail(e, trace.Hop{})
		if !errors.Is(err, ErrWireVersion) {
			t.Fatalf("attempt %d: err = %v, want ErrWireVersion", i, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "version 5") || !strings.Contains(msg, "speaks 6") {
			t.Errorf("attempt %d: error %q does not name both versions", i, msg)
		}
	}
	if idle := peer.pool.openIdle(); idle != 0 {
		t.Errorf("pool kept %d sessions of another version", idle)
	}
	if snap := stats.Snapshot(); snap.Dials != 2 || snap.OpenConns != 0 {
		t.Errorf("each attempt should dial afresh and close: %+v", snap)
	}
}

// TestUDPRumorPushServed sends a small rumor push through the UDP fast
// path against a real server and checks both delivery and the feedback
// bits.
func TestUDPRumorPushServed(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	n := wireNode(t, 2, src)
	srv, err := Serve(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stats := &WireStats{}
	peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{UDP: true, Stats: stats})
	defer peer.Close()

	e := store.Entry{Key: "k", Value: store.Value("v"), Stamp: timestamp.T{Time: 1, Site: 1, Seq: 1}}
	needed, err := peer.PushRumors([]store.Entry{e}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(needed) != 1 || !needed[0] {
		t.Errorf("first push needed = %v, want [true]", needed)
	}
	if v, ok := n.Lookup("k"); !ok || string(v) != "v" {
		t.Fatalf("rumor not applied: %q %v", v, ok)
	}
	// A second push of the same entry is redundant: feedback must say so.
	needed, err = peer.PushRumors([]store.Entry{e}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(needed) != 1 || needed[0] {
		t.Errorf("redundant push needed = %v, want [false]", needed)
	}
	snap := stats.Snapshot()
	if snap.UDPPushes != 2 || snap.UDPFallbacks != 0 {
		t.Errorf("pushes should have used the fast path: %+v", snap)
	}
	if snap.UDPBytesSent == 0 || snap.UDPBytesReceived == 0 {
		t.Errorf("datagram traffic not accounted: %+v", snap)
	}
}

// TestUDPOversizePushFallsBack pushes a payload over the datagram budget:
// it must go TCP without ever touching the socket.
func TestUDPOversizePushFallsBack(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	n := wireNode(t, 2, src)
	srv, err := Serve(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stats := &WireStats{}
	peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{UDP: true, Stats: stats})
	defer peer.Close()

	big := store.Entry{Key: "big", Value: store.Value(make([]byte, 4096)), Stamp: timestamp.T{Time: 1, Site: 1}}
	if _, err := peer.PushRumors([]store.Entry{big}, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Lookup("big"); !ok {
		t.Fatal("oversize rumor not applied")
	}
	snap := stats.Snapshot()
	if snap.UDPPushes != 0 || snap.UDPOversize != 1 || snap.UDPFallbacks != 1 {
		t.Errorf("oversize push accounting: %+v", snap)
	}
	if snap.UDPBytesSent != 0 {
		t.Errorf("oversize push should never hit the socket: %+v", snap)
	}
}

// TestUDPRejectsNonPushKinds checks the server answers disallowed kinds
// with an error instead of serving a multi-round protocol over datagrams.
func TestUDPRejectsNonPushKinds(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	n := wireNode(t, 2, src)
	srv, err := Serve(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := dialUDP(srv.Addr(), defaultUDPBudget, time.Second, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	req := request{Kind: reqFullSync}
	var resp response
	if !c.roundTrip(&req, &resp) {
		t.Fatal("no response to disallowed kind")
	}
	if resp.Err == "" {
		t.Error("server served full-sync over UDP")
	}
}

// TestServeUDPDisabled checks DisableUDP leaves no datagram listener and
// pushes still arrive over TCP.
func TestServeUDPDisabled(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	n := wireNode(t, 2, src)
	srv, err := ServeWith(n, "127.0.0.1:0", ServerOptions{DisableUDP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.udp != nil {
		t.Fatal("DisableUDP still bound a UDP socket")
	}

	stats := &WireStats{}
	peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{
		UDP: true, UDPTimeout: 50 * time.Millisecond, UDPRetries: 1, Stats: stats,
	})
	defer peer.Close()
	e := store.Entry{Key: "k", Value: store.Value("v"), Stamp: timestamp.T{Time: 1, Site: 1}}
	if _, err := peer.PushRumors([]store.Entry{e}, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Lookup("k"); !ok {
		t.Fatal("push did not fall back to TCP")
	}
	if snap := stats.Snapshot(); snap.UDPPushes != 0 || snap.UDPFallbacks != 1 {
		t.Errorf("fallback accounting: %+v", snap)
	}
}

// TestUDPServerSurvivesGarbageDatagrams sprays noise at the fast-path
// socket; the server must keep serving real pushes.
func TestUDPServerSurvivesGarbageDatagrams(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	n := wireNode(t, 2, src)
	srv, err := Serve(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	noisy, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{
		{},
		{'E', 'U'},
		{'E', 'U', wireVersion, udpTypeRequest}, // header only, no body
		[]byte("complete nonsense of a datagram"),
		append([]byte{'E', 'U', wireVersion, udpTypeRequest, 0, 0, 0, 0, 0, 0, 0, 1}, 0xff, 0xff, 0xff),
	} {
		if _, err := noisy.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	_ = noisy.Close()

	peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{UDP: true})
	defer peer.Close()
	e := store.Entry{Key: "k", Value: store.Value("v"), Stamp: timestamp.T{Time: 1, Site: 1}}
	if _, err := peer.PushRumors([]store.Entry{e}, nil); err != nil {
		t.Fatalf("push after garbage: %v", err)
	}
	if _, ok := n.Lookup("k"); !ok {
		t.Fatal("rumor not applied after garbage datagrams")
	}
}
