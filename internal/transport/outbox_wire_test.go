package transport

import (
	"fmt"
	"net"
	"testing"
	"time"

	"epidemic/internal/node"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// outboxNode builds a node with the async outbound engine enabled and a
// short flush budget, serving gossip on an ephemeral port.
func outboxNode(t *testing.T, site timestamp.SiteID, src *timestamp.Simulated) (*node.Node, *Server) {
	t.Helper()
	n, err := node.New(node.Config{
		Site:               site,
		Clock:              src.ClockAt(site),
		Seed:               int64(site),
		DirectMailOnUpdate: true,
		Outbox:             node.OutboxConfig{Workers: 4, FlushTimeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	srv, err := Serve(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return n, srv
}

// TestMailBatchOverTCP drives multi-entry outbox drains through the
// batched frame: a whole drain ships as one reqMailBatch.
func TestMailBatchOverTCP(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	a, _ := outboxNode(t, 1, src)
	b, sb := outboxNode(t, 2, src)

	ws := &WireStats{}
	peer := NewTCPPeerWith(2, sb.Addr(), PeerOptions{Stats: ws})
	a.SetPeers([]node.Peer{peer})

	for i := 0; i < 5; i++ {
		a.Update(fmt.Sprintf("k%d", i), store.Value("v"))
	}
	if !a.FlushMail(0) {
		t.Fatal("batch flush timed out")
	}

	for i := 0; i < 5; i++ {
		if _, ok := b.Lookup(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d never arrived", i)
		}
	}
	snap := ws.Snapshot()
	if snap.MailBatches == 0 {
		t.Error("no batched mail frames")
	}
	if snap.MailBatchEntries == 0 {
		t.Error("batched frames carried no entries")
	}
	if s := b.Stats(); s.MailBatchesReceived == 0 {
		t.Error("receiver never counted a mail batch")
	}
}

// TestSlowPeerDoesNotDelayUpdateOrHealthyPeers is the isolation guarantee
// behind the engine: a blackholed peer (accepts, never reads) must neither
// stretch Update's return nor starve delivery to healthy peers.
func TestSlowPeerDoesNotDelayUpdateOrHealthyPeers(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	a, _ := outboxNode(t, 1, src)
	b, sb := outboxNode(t, 2, src)

	// The blackhole: a listener that accepts connections and then ignores
	// them, the worst kind of slow peer — TCP connects fine, every request
	// hangs until the client deadline.
	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	go func() {
		for {
			conn, err := hole.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, read nothing
		}
	}()

	healthy := NewTCPPeer(2, sb.Addr())
	stalled := NewTCPPeerWith(3, hole.Addr().String(), PeerOptions{Timeout: 500 * time.Millisecond})
	a.SetPeers([]node.Peer{healthy, stalled})

	start := time.Now()
	a.Update("k", store.Value("v"))
	if took := time.Since(start); took > 200*time.Millisecond {
		t.Fatalf("Update took %v with a stalled peer; must return after an enqueue", took)
	}

	// The healthy peer must receive the update long before the stalled
	// peer's request deadline would even fire.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := b.Lookup("k"); ok && string(v) == "v" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthy peer starved behind the stalled one")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Site 3's batch is still pending or failing in the background; that
	// is the outbox's problem, not Update's. Flush generously so Stop's
	// own flush does not race the assertion window.
	a.FlushMail(3 * time.Second)
}
