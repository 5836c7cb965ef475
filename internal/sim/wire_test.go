package sim

import (
	"fmt"
	"testing"
	"time"

	"epidemic/internal/core"
	"epidemic/internal/node"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
	"epidemic/internal/transport"
)

// TestMixedCodecTCPClusterConverges stands up a small cluster over the real
// TCP transport with deliberately mixed configurations — rumor pushes over
// the UDP fast path at one site and pooled TCP at the others — and drives
// rumor and anti-entropy rounds until every replica agrees. It then pins
// the repair path: a conversation finishes on the shard-vector path
// without falling to the full swap.
func TestMixedCodecTCPClusterConverges(t *testing.T) {
	src := timestamp.NewSimulated(1 << 20)

	type site struct {
		n   *node.Node
		srv *transport.Server
		udp bool
	}

	udpPlan := []bool{true, false, false}
	sites := make([]*site, len(udpPlan))
	for i, udp := range udpPlan {
		id := timestamp.SiteID(i + 1)
		n, err := node.New(node.Config{
			Site:  id,
			Clock: src.ClockAt(id),
			Rumor: core.RumorConfig{K: 2, Counter: true, Feedback: true, Mode: core.Push},
			Seed:  int64(i) + 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := transport.Serve(n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		sites[i] = &site{n: n, srv: srv, udp: udp}
	}

	stats := &transport.WireStats{}
	for i, s := range sites {
		var peers []node.Peer
		for j, target := range sites {
			if j == i {
				continue
			}
			p := transport.NewTCPPeerWith(target.n.Site(), target.srv.Addr(), transport.PeerOptions{
				Timeout: 2 * time.Second,
				UDP:     s.udp,
				Stats:   stats,
			})
			defer p.Close()
			peers = append(peers, p)
		}
		s.n.SetPeers(peers)
	}

	// Seed a distinct update at every site, then gossip.
	for i, s := range sites {
		s.n.Update(fmt.Sprintf("k%d", i), store.Value(fmt.Sprintf("v%d", i)))
	}

	consistent := func() bool {
		first := sites[0].n.Store()
		for _, s := range sites[1:] {
			if !store.ContentEqual(first, s.n.Store()) {
				return false
			}
		}
		return true
	}

	for round := 0; round < 40 && !consistent(); round++ {
		for _, s := range sites {
			_ = s.n.StepRumor()
			if err := s.n.StepAntiEntropy(); err != nil {
				t.Fatalf("anti-entropy from site %d: %v", s.n.Site(), err)
			}
		}
		src.Advance(1)
	}
	if !consistent() {
		t.Fatal("mixed cluster never converged")
	}

	// Deterministic shard-vector exercise on top of the converged cluster:
	// the conversation must complete on the narrow path and converge.
	target := sites[2]
	sites[0].n.Update("late", store.Value("zz"))
	src.Advance(500)
	p := transport.NewTCPPeerWith(target.n.Site(), target.srv.Addr(),
		transport.PeerOptions{Timeout: 2 * time.Second, Stats: stats})
	defer p.Close()
	if _, err := p.AntiEntropy(core.ResolveConfig{
		Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 1,
	}, sites[0].n.Store(), nil); err != nil {
		t.Fatalf("anti-entropy to site %d: %v", target.n.Site(), err)
	}
	if !store.ContentEqual(sites[0].n.Store(), target.n.Store()) {
		t.Fatalf("site %d differs after shard-vector exercise", target.n.Site())
	}
	snap := stats.Snapshot()
	if snap.ShardVecExchanges == 0 {
		t.Error("no shard-vector exchange completed")
	}
	if snap.ShardVecDowngrades != 0 {
		t.Errorf("%d conversations fell to the full swap", snap.ShardVecDowngrades)
	}
}
