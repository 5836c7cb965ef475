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
// the UDP fast path at one site and pooled TCP at the others, and one site
// whose store runs more shards than everyone else's — and drives rumor and
// anti-entropy rounds until every replica agrees. It then pins which
// repair path each pairing takes: equal shard counts finish on the
// shard-vector path, mismatched ones record a downgrade to the global walk.
func TestMixedCodecTCPClusterConverges(t *testing.T) {
	src := timestamp.NewSimulated(1 << 20)

	type site struct {
		n   *node.Node
		srv *transport.Server
		udp bool
	}

	// Site 4's vectors are incomparable with site 1's, forcing the
	// shard-count downgrade.
	plans := []struct {
		udp    bool
		shards int
	}{
		{udp: true},
		{},
		{},
		{shards: 64},
	}

	sites := make([]*site, len(plans))
	for i, plan := range plans {
		id := timestamp.SiteID(i + 1)
		n, err := node.New(node.Config{
			Site:        id,
			Clock:       src.ClockAt(id),
			Rumor:       core.RumorConfig{K: 2, Counter: true, Feedback: true, Mode: core.Push},
			StoreShards: plan.shards,
			Seed:        int64(i) + 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := transport.Serve(n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		sites[i] = &site{n: n, srv: srv, udp: plan.udp}
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
	// a conversation with equal shard counts must complete on the narrow
	// path; one against the 64-shard site must record a downgrade — and
	// both must converge.
	exercise := func(target *site) {
		t.Helper()
		sites[0].n.Update(fmt.Sprintf("late-%d", target.n.Site()), store.Value("zz"))
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
	}
	exercise(sites[2]) // equal shard counts
	exercise(sites[3]) // 64 shards: incomparable vectors
	snap := stats.Snapshot()
	if snap.ShardVecExchanges == 0 {
		t.Error("no shard-vector exchange completed between equal-shard peers")
	}
	if snap.ShardVecDowngrades == 0 {
		t.Error("mismatched shard counts never recorded a downgrade")
	}
}
