package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"epidemic/internal/core"
	"epidemic/internal/node"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// cutPair serves a remote node and builds a local store on one simulated
// clock, with shared keys written to both sides.
func cutPair(t *testing.T, shared int) (*timestamp.Simulated, *store.Store, *node.Node, *Server) {
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
	t.Cleanup(func() { _ = srv.Close() })
	local := store.New(1, src.ClockAt(1))
	for i := 0; i < shared; i++ {
		remote.Store().Apply(local.Update(fmt.Sprintf("shared%06d", i), store.Value("v")))
		src.Advance(1)
	}
	return src, local, remote, srv
}

// exchangeBytes runs one conversation and returns its stats plus the framed
// bytes it moved in both directions.
func exchangeBytes(t *testing.T, peer *TCPPeer, stats *WireStats, cfg core.ResolveConfig, local *store.Store) (core.ExchangeStats, int64) {
	t.Helper()
	var moved int64
	stats.SetExchangeObserver(func(_, _ int, out, in int64) { moved = out + in })
	defer stats.SetExchangeObserver(nil)
	st, err := peer.AntiEntropy(cfg, local, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st, moved
}

// TestCutInSyncShipsNothing: replicas in sync whose every entry is younger
// than τ ship no entries in a conversation, and the bytes on the wire do
// not depend on how many keys they hold. Round 0 compares checksums at the
// cut; no recent-update list crosses the wire whatever cfg.Tau says.
func TestCutInSyncShipsNothing(t *testing.T) {
	cfg := core.ResolveConfig{Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 1 << 40, Tau1: 1 << 40}
	var bytesAt []int64
	for _, n := range []int{1_000, 10_000} {
		_, local, _, srv := cutPair(t, n)
		stats := &WireStats{}
		peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{Stats: stats})
		defer peer.Close()
		st, moved := exchangeBytes(t, peer, stats, cfg, local)
		if st.Transferred() != 0 || st.FullCompare || st.ShardsRepaired != 0 {
			t.Fatalf("n=%d: in-sync conversation moved entries: %+v", n, st)
		}
		bytesAt = append(bytesAt, moved)
	}
	if bytesAt[0] != bytesAt[1] {
		t.Errorf("in-sync conversation bytes grew with the store: %d at 1k keys, %d at 10k", bytesAt[0], bytesAt[1])
	}
	// Round 0 carries one checksum and a 16-word vector out, one checksum
	// back: a few hundred bytes.
	if bytesAt[1] > 512 {
		t.Errorf("in-sync conversation moved %d bytes, want O(shards) words", bytesAt[1])
	}
}

// TestCutRepairsOldDivergenceInOrderDelta: δ entries on each side, stamped
// before the cut, are repaired on the narrow path with O(δ) entries, not
// O(store).
func TestCutRepairsOldDivergenceInOrderDelta(t *testing.T) {
	const delta = 10
	src, local, remote, srv := cutPair(t, 10_000)
	for i := 0; i < delta; i++ {
		local.Update(fmt.Sprintf("mine%02d", i), store.Value("x"))
		remote.Store().Update(fmt.Sprintf("theirs%02d", i), store.Value("y"))
		src.Advance(1)
	}
	src.Advance(100)
	stats := &WireStats{}
	peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{Stats: stats})
	defer peer.Close()
	st, err := peer.AntiEntropy(core.ResolveConfig{Mode: core.PushPull, Tau1: 1 << 40}, local, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !store.ContentEqual(local, remote.Store()) {
		t.Fatal("replicas differ after the conversation")
	}
	if st.FullCompare || stats.Snapshot().ShardVecDowngrades != 0 {
		t.Errorf("old divergence left the narrow path: %+v / %+v", st, stats.Snapshot())
	}
	if st.EntriesApplied != delta {
		t.Errorf("applied %d entries locally, want %d", st.EntriesApplied, delta)
	}
	// At most one probe batch each way per diverged stripe, and at most
	// 2δ stripes diverge.
	if moved := st.Transferred(); moved > 2*shardProbeBatch*2*delta {
		t.Errorf("moved %d entries for a %d-entry divergence", moved, 2*delta)
	}
}

// TestCutWritesDuringExchangeKeepNarrowPath runs conversations while a
// writer keeps updating both replicas — new keys and overwrites of shared
// ones — and delivers each write to the other replica a few writes later,
// as in-flight mail does. Writes past the cut must not move the
// conversation's target: no fall to the full swap, and the old divergence
// each conversation targets is repaired.
func TestCutWritesDuringExchangeKeepNarrowPath(t *testing.T) {
	src, local, remote, srv := cutPair(t, 2_000)
	src.Advance(100)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		const lag = 8 // writes in flight each way
		var toRemote, toLocal []store.Entry
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("live%06d", i)
			if i%4 == 0 {
				key = fmt.Sprintf("shared%06d", (i*7919)%2_000)
			}
			toRemote = append(toRemote, local.Update(key, store.Value("w")))
			toLocal = append(toLocal, remote.Store().Update(key+"r", store.Value("w")))
			if len(toRemote) > lag {
				remote.Store().Apply(toRemote[0])
				local.Apply(toLocal[0])
				toRemote, toLocal = toRemote[1:], toLocal[1:]
			}
			src.Advance(1)
			time.Sleep(20 * time.Microsecond)
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	stats := &WireStats{}
	peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{Stats: stats})
	defer peer.Close()
	cfg := core.ResolveConfig{Mode: core.PushPull, Tau1: 1 << 40}
	for round := 0; round < 10; round++ {
		key := fmt.Sprintf("old%02d", round)
		local.Update(key, store.Value("x")) // stamped before the next cut
		st, err := peer.AntiEntropy(cfg, local, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.FullCompare {
			t.Fatalf("round %d: full swap under concurrent writes: %+v", round, st)
		}
		if _, ok := remote.Store().Lookup(key); !ok {
			t.Fatalf("round %d: %s not repaired", round, key)
		}
	}
	if n := stats.Snapshot().ShardVecDowngrades; n != 0 {
		t.Errorf("%d falls to the full swap under concurrent writes", n)
	}
}

// TestCutShipsBackVersionsPastTheCut: a key one side holds in a version
// stamped after the cut and the other in an older one sits in only one cut
// view, and neither walk from the cut carries the newer version. The side
// that receives the stale copy ships its newer version back, in both
// directions, without leaving the narrow path.
func TestCutShipsBackVersionsPastTheCut(t *testing.T) {
	src, local, remote, srv := cutPair(t, 500)
	src.Advance(100)
	cut := src.Read()
	// Old versions on both sides, then a version stamped past the cut
	// (from a site whose clock runs ahead) on one side each.
	oldMine := local.Update("mine", store.Value("old"))
	oldTheirs := local.Update("theirs", store.Value("old"))
	remote.Store().Apply(oldMine)
	remote.Store().Apply(oldTheirs)
	future := func(key string, site timestamp.SiteID) store.Entry {
		return store.Entry{Key: key, Value: store.Value("new"),
			Stamp: timestamp.T{Time: cut + 1_000, Site: site}, Activation: timestamp.T{Time: cut + 1_000, Site: site}}
	}
	local.Apply(future("mine", 9))
	remote.Store().Apply(future("theirs", 8))

	stats := &WireStats{}
	peer := NewTCPPeerWith(2, srv.Addr(), PeerOptions{Stats: stats})
	defer peer.Close()
	st, err := peer.AntiEntropy(core.ResolveConfig{Mode: core.PushPull, Tau1: 1 << 40}, local, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !store.ContentEqual(local, remote.Store()) {
		t.Fatal("replicas differ after the conversation")
	}
	if st.FullCompare || stats.Snapshot().ShardVecDowngrades != 0 {
		t.Errorf("left the narrow path: %+v / %+v", st, stats.Snapshot())
	}
}
