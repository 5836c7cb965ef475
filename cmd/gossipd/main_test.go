package main

import (
	"bufio"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"epidemic"
)

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("2=host2:7001, 3=host3:7001", epidemic.TCPPeerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 {
		t.Fatalf("peers = %d", len(peers))
	}
	if peers[0].ID() != 2 || peers[1].ID() != 3 {
		t.Errorf("IDs = %d %d", peers[0].ID(), peers[1].ID())
	}
	if got, _ := parsePeers("", epidemic.TCPPeerOptions{}); got != nil {
		t.Error("empty spec should be nil")
	}
	if _, err := parsePeers("nonsense", epidemic.TCPPeerOptions{}); err == nil {
		t.Error("missing '=' accepted")
	}
	if _, err := parsePeers("x=host:1", epidemic.TCPPeerOptions{}); err == nil {
		t.Error("non-numeric id accepted")
	}
}

// clientRoundTrip sends one command to a handleClient goroutine over a
// pipe and returns the first response line.
func clientSession(t *testing.T, n *epidemic.Node, cmds []string) []string {
	t.Helper()
	server, client := net.Pipe()
	go handleClient(server, n, clientEnv{})
	defer client.Close()

	var out []string
	r := bufio.NewReader(client)
	for _, cmd := range cmds {
		if _, err := client.Write([]byte(cmd + "\n")); err != nil {
			t.Fatal(err)
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read after %q: %v", cmd, err)
		}
		out = append(out, strings.TrimSpace(line))
	}
	return out
}

func TestClientProtocol(t *testing.T) {
	n, err := epidemic.NewNode(epidemic.NodeConfig{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := clientSession(t, n, []string{
		"GET missing",
		"SET k hello world",
		"GET k",
		"KEYS",
		"DEL k",
		"GET k",
		"STATS",
		"BOGUS",
		"GET",
		"SET sp a  b",
		"GET sp",
	})
	want := []string{
		"MISSING",
		"OK",
		"VALUE hello world",
		"KEYS k",
		"OK",
		"MISSING",
		"", // STATS checked by prefix below
		"ERR unknown command",
		"ERR usage: GET <key>",
		"OK",
		"VALUE a  b", // the value is kept byte for byte
	}
	for i, w := range want {
		if i == 6 {
			if !strings.HasPrefix(got[i], "STATS updates=2") {
				t.Errorf("STATS = %q", got[i])
			}
			continue
		}
		if got[i] != w {
			t.Errorf("cmd %d: got %q, want %q", i, got[i], w)
		}
	}
}

func TestClientProtocolArgErrors(t *testing.T) {
	n, err := epidemic.NewNode(epidemic.NodeConfig{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := clientSession(t, n, []string{"SET onlykey", "DEL"})
	if !strings.HasPrefix(got[0], "ERR usage: SET") {
		t.Errorf("SET error = %q", got[0])
	}
	if !strings.HasPrefix(got[1], "ERR usage: DEL") {
		t.Errorf("DEL error = %q", got[1])
	}
}

// TestClientLineTooLong sends a SET longer than the line cap: the client
// gets an ERR line before the connection closes, and nothing is stored.
func TestClientLineTooLong(t *testing.T) {
	n, err := epidemic.NewNode(epidemic.NodeConfig{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go handleClient(server, n, clientEnv{})
	defer client.Close()
	go func() { _, _ = client.Write([]byte("SET big " + strings.Repeat("x", 70<<10) + "\n")) }()
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(client)
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("no reply to an overlong line: %v", err)
	}
	if got := strings.TrimSpace(line); got != "ERR line exceeds 65536 bytes" {
		t.Errorf("reply = %q", got)
	}
	if _, err := r.ReadString('\n'); err != io.EOF {
		t.Errorf("connection still open after the ERR line: %v", err)
	}
	if _, ok := n.Lookup("big"); ok {
		t.Error("an overlong SET was stored")
	}
}

func TestClientMembers(t *testing.T) {
	n, err := epidemic.NewNode(epidemic.NodeConfig{Site: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := epidemic.Announce(n, "h5:1"); err != nil {
		t.Fatal(err)
	}
	n.Update("app", epidemic.Value("x"))
	got := clientSession(t, n, []string{"MEMBERS", "KEYS"})
	if got[0] != "MEMBERS 5=h5:1" {
		t.Errorf("MEMBERS = %q", got[0])
	}
	if got[1] != "KEYS app" {
		t.Errorf("KEYS leaked membership records: %q", got[1])
	}
}

// TestDaemonRefusesRetiredCodecs: binary is the only wire format, so the
// codec names older builds accepted stop the daemon at startup.
func TestDaemonRefusesRetiredCodecs(t *testing.T) {
	for _, codec := range []string{"gob", "legacy", "binary-v4"} {
		d, err := startDaemon(daemonConfig{
			site: 1, listen: "127.0.0.1:0", client: "127.0.0.1:0",
			aePer: time.Hour, rumPer: time.Hour, k: 3,
			tau1: time.Hour, tau2: time.Hour, retain: 1, codec: codec,
		})
		if err == nil {
			d.Close()
			t.Errorf("-codec %s: daemon started", codec)
		} else if !strings.Contains(err.Error(), codec) {
			t.Errorf("-codec %s: error %q does not name the codec", codec, err)
		}
	}
}

// End-to-end: two daemons on ephemeral ports, seeded one-way, converge
// via gossip and the membership directory.
func TestDaemonEndToEnd(t *testing.T) {
	base := daemonConfig{
		listen: "127.0.0.1:0", client: "127.0.0.1:0",
		aePer: 20 * time.Millisecond, rumPer: 10 * time.Millisecond,
		mail: true, k: 3, tau1: time.Hour, tau2: time.Hour, retain: 1, shardVector: true,
	}
	cfg1 := base
	cfg1.site = 1
	d1, err := startDaemon(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	defer d1.Close()

	cfg2 := base
	cfg2.site = 2
	cfg2.peerSpec = "1=" + d1.GossipAddr()
	d2, err := startDaemon(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()

	send := func(addr, cmd string) string {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(cmd + "\n")); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(line)
	}

	if got := send(d2.ClientAddr(), "SET greeting hello"); got != "OK" {
		t.Fatalf("SET = %q", got)
	}
	deadline := time.After(5 * time.Second)
	for {
		if got := send(d1.ClientAddr(), "GET greeting"); got == "VALUE hello" {
			break
		}
		select {
		case <-deadline:
			t.Fatal("update never reached daemon 1")
		case <-time.After(20 * time.Millisecond):
		}
	}
	// Membership: daemon 1 must have learned daemon 2's record via gossip.
	for {
		got := send(d1.ClientAddr(), "MEMBERS")
		if strings.Contains(got, "1=") && strings.Contains(got, "2=") {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("directory never synced: %q", got)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func TestClientHotAndSnapshot(t *testing.T) {
	n, err := epidemic.NewNode(epidemic.NodeConfig{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	n.Update("fresh", epidemic.Value("v"))
	got := clientSession(t, n, []string{"HOT", "SNAPSHOT"})
	if got[0] != "HOT fresh" {
		t.Errorf("HOT = %q", got[0])
	}
	// No snapshot path configured: clean error.
	if !strings.HasPrefix(got[1], "ERR") {
		t.Errorf("SNAPSHOT without path = %q", got[1])
	}
}
