package transport

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

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
func buildShardVecPair(t *testing.T, sc shardVecScenario, localShards, remoteShards int) (*store.Store, *node.Node, *Server, map[string]bool, map[string]bool) {
	t.Helper()
	src := timestamp.NewSimulated(1 << 30)
	remote, err := node.New(node.Config{Site: 2, Clock: src.ClockAt(2), StoreShards: remoteShards})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(remote, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	local := store.NewSharded(1, src.ClockAt(1), localShards)

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
// property: for random divergence scattered across shards, a shard-vector
// exchange applies exactly the key set a global peel-back applies, and both
// converge — between peers with equal shard counts (the narrow path) and
// peers whose shard counts make the vectors incomparable (a recorded
// downgrade to the global walk).
func TestShardVectorRepairPropertyAcrossCodecs(t *testing.T) {
	cases := []struct {
		name                      string
		localShards, remoteShards int
		wantShardVec              bool // narrow path should complete
	}{
		{"equal-shards", 16, 16, true},
		{"mismatched-shards", 16, 64, false},
	}
	sc := shardVecScenario{shared: 300, localOnly: 25, remoteOnly: 25, seed: 0x5eed}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(disable bool) (st core.ExchangeStats, snap WireSnapshot, local *store.Store, remote *node.Node) {
				local, remote, srv, localMissing, remoteMissing := buildShardVecPair(
					t, sc, tc.localShards, tc.remoteShards)
				defer srv.Close()
				stats := &WireStats{}
				peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{
					DisableShardVector: disable, Stats: stats,
				})
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
				// The applied key set on the local side must be exactly the
				// keys local was missing; remote convergence plus ContentEqual
				// pins the other direction.
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
				return st, stats.Snapshot(), local, remote
			}

			svStats, snap, _, _ := run(false)
			pbStats, _, _, _ := run(true)

			// Identical applied sets were asserted inside run for both paths;
			// here pin which mechanism did the work.
			if tc.wantShardVec {
				if snap.ShardVecExchanges == 0 {
					t.Error("shard-vector path not taken between equal shard counts")
				}
				if snap.ShardVecDowngrades != 0 {
					t.Errorf("unexpected downgrades: %d", snap.ShardVecDowngrades)
				}
				if svStats.ShardsRepaired == 0 {
					t.Error("ShardsRepaired = 0 on the shard-vector path")
				}
			} else {
				if snap.ShardVecExchanges != 0 {
					t.Errorf("shard-vector path ran on %s: %+v", tc.name, snap)
				}
				if snap.ShardVecDowngrades == 0 {
					t.Error("expected a recorded downgrade")
				}
			}
			if pbStats.ShardsRepaired != 0 {
				t.Error("global path reported repaired shards")
			}
		})
	}
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
	local, remote, srv, localMissing, _ := buildShardVecPair(t, sc, 32, 32)
	defer srv.Close()
	stats := &WireStats{}
	peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{
		Stats: stats, ShardRepairWorkers: 8,
	})
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
