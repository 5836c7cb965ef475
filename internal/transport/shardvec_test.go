package transport

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"testing"
	"time"

	"epidemic/internal/core"
	"epidemic/internal/node"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// shardVecScenario is one divergence layout: a shared history plus entries
// private to each side, scattered across shards by the key hash.
type shardVecScenario struct {
	shared, localOnly, remoteOnly int
	seed                          int64
}

// buildShardVecPair constructs a served remote node plus a local store with
// the scenario's divergence. It returns the expected key sets each side is
// missing: exactly what a correct repair must apply on each side.
func buildShardVecPair(t *testing.T, sc shardVecScenario) (*store.Store, *node.Node, *Server, map[string]bool, map[string]bool) {
	t.Helper()
	src := timestamp.NewSimulated(1 << 30)
	remote, err := node.New(node.Config{Site: 2, Clock: src.ClockAt(2)})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(remote, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	local := store.New(1, src.ClockAt(1))

	rng := rand.New(rand.NewSource(sc.seed))
	localMissing := map[string]bool{}  // keys local must receive
	remoteMissing := map[string]bool{} // keys remote must receive
	n := sc.shared + sc.localOnly + sc.remoteOnly
	for i := 0; i < n; i++ {
		// The random prefix scatters keys across shards; the index suffix
		// keeps every key unique so the expected sets are exact.
		key := fmt.Sprintf("pk%05d-%04d", rng.Intn(1<<20), i)
		switch {
		case i < sc.shared:
			e := local.Update(key, store.Value("v"))
			remote.Store().Apply(e)
		case i < sc.shared+sc.localOnly:
			local.Update(key, store.Value("mine"))
			remoteMissing[key] = true
		default:
			remote.Store().Update(key, store.Value("theirs"))
			localMissing[key] = true
		}
		src.Advance(1)
	}
	src.Advance(500) // push all divergence outside any recent window
	return local, remote, srv, localMissing, remoteMissing
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestShardVectorRepairPropertyAcrossCodecs is the wire-level correctness
// property: for random divergence scattered across shards, a conversation
// applies exactly the keys each side was missing, converges, and finishes
// on the narrow path.
func TestShardVectorRepairPropertyAcrossCodecs(t *testing.T) {
	sc := shardVecScenario{shared: 300, localOnly: 25, remoteOnly: 25, seed: 0x5eed}
	t.Run("equal-shards", func(t *testing.T) {
		local, remote, srv, localMissing, remoteMissing := buildShardVecPair(t, sc)
		defer srv.Close()
		stats := &WireStats{}
		peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{Stats: stats})
		defer peer.Close()
		st, err := peer.AntiEntropy(core.ResolveConfig{
			Mode: core.PushPull, Strategy: core.CompareRecent,
			Tau: 10, BatchSize: 16,
		}, local, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !store.ContentEqual(local, remote.Store()) {
			t.Fatal("stores differ after anti-entropy")
		}
		// The applied key set on the local side must be exactly the keys
		// local was missing; remote convergence plus ContentEqual pins the
		// other direction.
		got := map[string]bool{}
		for _, k := range st.AppliedKeys {
			got[k] = true
		}
		want := sortedKeys(localMissing)
		if gotKeys := sortedKeys(got); !equalStrings(gotKeys, want) {
			t.Fatalf("applied %d keys %v\nwant %d keys %v", len(gotKeys), gotKeys, len(want), want)
		}
		for k := range remoteMissing {
			if _, ok := remote.Store().Lookup(k); !ok {
				t.Fatalf("remote still missing %q", k)
			}
		}
		snap := stats.Snapshot()
		if snap.ShardVecExchanges == 0 {
			t.Error("narrow path not recorded")
		}
		if snap.ShardVecDowngrades != 0 || st.FullCompare {
			t.Errorf("fell to the full swap: %d downgrades, %+v", snap.ShardVecDowngrades, st)
		}
		if st.ShardsRepaired == 0 {
			t.Error("ShardsRepaired = 0 on the narrow path")
		}
	})
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardVectorWorkerPoolRepairsManyShards drives a divergence wide
// enough to occupy every worker and checks the parallel repair is exact.
func TestShardVectorWorkerPoolRepairsManyShards(t *testing.T) {
	sc := shardVecScenario{shared: 200, localOnly: 120, remoteOnly: 120, seed: 7}
	local, remote, srv, localMissing, _ := buildShardVecPair(t, sc)
	defer srv.Close()
	stats := &WireStats{}
	peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{Stats: stats})
	defer peer.Close()
	st, err := peer.AntiEntropy(core.ResolveConfig{
		Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 10, BatchSize: 16,
	}, local, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !store.ContentEqual(local, remote.Store()) {
		t.Fatal("stores differ after parallel shard repair")
	}
	if st.EntriesApplied != len(localMissing) {
		t.Errorf("applied %d entries, want %d", st.EntriesApplied, len(localMissing))
	}
	snap := stats.Snapshot()
	if snap.ShardVecExchanges != 1 || st.ShardsRepaired == 0 {
		t.Errorf("narrow path accounting off: %+v / repaired %d", snap, st.ShardsRepaired)
	}
	if snap.ShardVecShards != int64(st.ShardsRepaired) {
		t.Errorf("stats shards %d != exchange shards %d", snap.ShardVecShards, st.ShardsRepaired)
	}
}

// TestServerRefusesMalformedShardRequests: a comparison whose vector is
// not store.Shards wide, or a shard peel outside [0, store.Shards), is
// malformed input. Each gets an Err response, and the same session then
// serves a valid request.
func TestServerRefusesMalformedShardRequests(t *testing.T) {
	n, err := node.New(node.Config{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	n.Update("k", store.Value("v"))
	srv, err := Serve(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sess := newSession(conn, 0)
	defer sess.Close()
	if err := sess.clientHandshake(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	roundTrip := func(req request) response {
		t.Helper()
		sess.setDeadline(time.Now().Add(5 * time.Second))
		if err := sess.writeRequest(&req); err != nil {
			t.Fatal(err)
		}
		var resp response
		if err := sess.readResponse(&resp); err != nil {
			t.Fatalf("%s: session died: %v", req.Kind.kindName(), err)
		}
		return resp
	}
	now := n.Store().Now()
	valid := request{Kind: reqSync, Now: now, Vector: make([]uint64, store.Shards)}
	for _, bad := range []request{
		{Kind: reqSync, Now: now},
		{Kind: reqSync, Now: now, Vector: make([]uint64, store.Shards-1)},
		{Kind: reqSync, Now: now, Vector: make([]uint64, store.Shards+1)},
		{Kind: reqChecksum, Now: now, Vector: make([]uint64, 3)},
		{Kind: reqPeelBackShard, Now: now, Shard: -1, Bound: store.CutBound(now)},
		{Kind: reqPeelBackShard, Now: now, Shard: store.Shards, Bound: store.CutBound(now)},
	} {
		if resp := roundTrip(bad); resp.Err == "" {
			t.Errorf("%s with %d sums, shard %d: served without Err: %+v",
				bad.Kind.kindName(), len(bad.Vector), bad.Shard, resp)
		}
		resp := roundTrip(valid)
		if resp.Err != "" || resp.InSync || len(resp.Vector) != store.Shards {
			t.Fatalf("valid sync after a malformed one: %+v", resp)
		}
	}
}
