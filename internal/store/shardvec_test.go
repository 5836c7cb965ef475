package store

import (
	"fmt"
	"testing"

	"epidemic/internal/timestamp"
)

// buildShardVecStore writes n entries plus some deletions so the vector
// tests see live entries, fresh death certificates, and dormant ones.
func buildShardVecStore(t *testing.T, n int) (*Store, *timestamp.Simulated) {
	t.Helper()
	src := timestamp.NewSimulated(1)
	st := New(1, src.ClockAt(1))
	for i := 0; i < n; i++ {
		st.Update(fmt.Sprintf("sv%04d", i), Value("v"))
		src.Advance(1)
	}
	// Every 7th key becomes a death certificate; the early ones will be
	// dormant by the time the tests read "now".
	for i := 0; i < n; i += 7 {
		st.Delete(fmt.Sprintf("sv%04d", i), nil)
		src.Advance(1)
	}
	src.Advance(50)
	return st, src
}

func TestChecksumVectorFoldsToLive(t *testing.T) {
	st, _ := buildShardVecStore(t, 200)
	now := st.Now()
	for _, tau1 := range []int64{0, 40, 1 << 40} {
		vec := st.ChecksumVector(now, tau1)
		if len(vec) != Shards {
			t.Fatalf("vector len = %d, want %d", len(vec), Shards)
		}
		var fold uint64
		for i, v := range vec {
			fold ^= v
			if got := st.ChecksumShard(i, now, tau1); got != v {
				t.Errorf("tau1=%d shard %d: ChecksumShard = %#x, vector = %#x", tau1, i, got, v)
			}
		}
		if live := st.ChecksumLive(now, tau1); fold != live {
			t.Errorf("tau1=%d: vector fold = %#x, ChecksumLive = %#x", tau1, fold, live)
		}
	}
}

func TestAppendChecksumVectorReusesBacking(t *testing.T) {
	st, _ := buildShardVecStore(t, 40)
	now := st.Now()
	buf := make([]uint64, 0, Shards)
	got := st.AppendChecksumVector(buf, now, 1<<40)
	if &got[0] != &buf[:1][0] {
		t.Error("AppendChecksumVector reallocated despite sufficient capacity")
	}
	want := st.ChecksumVector(now, 1<<40)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shard %d: append = %#x, fresh = %#x", i, got[i], want[i])
		}
	}
}

// TestPeelBatchShardMatchesGlobalWalk checks that walking every shard to
// exhaustion visits exactly the non-dormant entries of the merged global
// walk (OlderThan, as core's peel-back uses it), with per-shard
// newest-first order and no duplicates.
func TestPeelBatchShardMatchesGlobalWalk(t *testing.T) {
	st, _ := buildShardVecStore(t, 300)
	now := st.Now()
	const tau1 = 40 // early deletions are dormant, late ones live

	want := map[string]Entry{}
	for _, e := range st.OlderThan(PeelStart, 0) {
		if !IsDormant(e, now, tau1) {
			want[e.Key] = e
		}
	}

	got := map[string]Entry{}
	for i := 0; i < Shards; i++ {
		bound, more := PeelStart, true
		var prev timestamp.T
		first := true
		for more {
			var batch []Entry
			batch, bound, more = st.PeelBatchShard(i, bound, 16, now, tau1)
			for _, e := range batch {
				if sh := st.shardFor(e.Key); sh != &st.shards[i] {
					t.Fatalf("shard %d returned foreign key %q", i, e.Key)
				}
				if !first && prev.Less(e.Stamp) {
					t.Fatalf("shard %d walk not newest-first: %v then %v", i, prev, e.Stamp)
				}
				prev, first = e.Stamp, false
				if _, dup := got[e.Key]; dup {
					t.Fatalf("key %q returned twice", e.Key)
				}
				got[e.Key] = e
			}
		}
		// An exhausted shard walk stays exhausted.
		if batch, _, more := st.PeelBatchShard(i, bound, 16, now, tau1); len(batch) != 0 || more {
			t.Fatalf("shard %d walk past the end returned %d entries, more=%v", i, len(batch), more)
		}
	}

	if len(got) != len(want) {
		t.Fatalf("shard walks visited %d entries, global walk %d", len(got), len(want))
	}
	for k, e := range want {
		if g, ok := got[k]; !ok || !g.Equal(e) {
			t.Errorf("key %q differs between shard and global walks", k)
		}
	}
}

// TestCollectMergedScratchPooled pins the satellite win: a peel round's
// scratch (per-shard slice heap + merge cursors) comes from the pool. The
// returned entries are clones that must escape, so the pooling is
// observable on an empty walk — before pooling it cost the [][]Entry heap
// plus the cursor slice; now it is allocation-free.
func TestCollectMergedScratchPooled(t *testing.T) {
	st, _ := buildShardVecStore(t, 400)
	exhausted := timestamp.T{} // nothing is older than the zero stamp
	// Warm the pool.
	for i := 0; i < 4; i++ {
		st.OlderThan(exhausted, 64)
	}
	avg := testing.AllocsPerRun(100, func() {
		st.OlderThan(exhausted, 64)
	})
	if avg > 0 {
		t.Errorf("empty OlderThan allocates %.1f/op with pooled scratch, want 0", avg)
	}
}

// TestChecksumAtMatchesStoreCutAtCut: the figures as of a cut equal those
// of a store that only ever received the entries stamped at or before it,
// whatever was written after it — new keys, overwrites and deletions.
func TestChecksumAtMatchesStoreCutAtCut(t *testing.T) {
	const tau1 = 40
	st, src := buildShardVecStore(t, 200)
	cut := src.Read()
	st.Update("at-cut", Value("v")) // stamped exactly at the cut: inside it
	early := st.Snapshot()
	src.Advance(1)
	for i := 0; i < 30; i++ {
		st.Update(fmt.Sprintf("late%02d", i), Value("new"))
		st.Update(fmt.Sprintf("sv%04d", i*5+1), Value("overwritten"))
		st.Delete(fmt.Sprintf("sv%04d", i*5+2), nil)
		src.Advance(1)
	}
	// The reference store holds what st held at the cut, minus the keys
	// written after it: those are out of the cut view on both sides.
	ref := New(2, src.ClockAt(2))
	for _, e := range early {
		if ts, _ := st.Stamp(e.Key); ts.Time <= cut {
			ref.Apply(e)
		}
	}
	if got, want := st.ChecksumAt(cut, tau1), ref.ChecksumLive(cut, tau1); got != want {
		t.Errorf("ChecksumAt = %#x, reference = %#x", got, want)
	}
	vec := st.AppendChecksumVectorAt(nil, cut, tau1)
	want := ref.ChecksumVector(cut, tau1)
	var fold uint64
	for i := range vec {
		fold ^= vec[i]
		if vec[i] != want[i] {
			t.Errorf("shard %d: vector at cut = %#x, reference = %#x", i, vec[i], want[i])
		}
		if got := st.ChecksumShardAt(i, cut, tau1); got != vec[i] {
			t.Errorf("shard %d: ChecksumShardAt = %#x, vector = %#x", i, got, vec[i])
		}
	}
	if fold != st.ChecksumAt(cut, tau1) {
		t.Error("vector at cut does not fold to ChecksumAt")
	}
}

// TestCutBoundStartsWalkAtCut: a peel walk from CutBound(cut) visits
// exactly the entries stamped at or before cut.
func TestCutBoundStartsWalkAtCut(t *testing.T) {
	st, src := buildShardVecStore(t, 100)
	cut := src.Read()
	st.Update("at-cut", Value("v")) // stamped exactly at the cut: inside it
	for i := 0; i < 10; i++ {
		src.Advance(1)
		st.Update(fmt.Sprintf("late%02d", i), Value("new"))
	}
	seen := 0
	for i := 0; i < Shards; i++ {
		bound, more := CutBound(cut), true
		for more {
			var batch []Entry
			batch, bound, more = st.PeelBatchShard(i, bound, 16, cut, 1<<40)
			for _, e := range batch {
				if e.Stamp.Time > cut {
					t.Fatalf("walk from the cut returned %v stamped after %d", e.Stamp, cut)
				}
				seen++
			}
		}
	}
	if want := st.Len() - 10; seen != want {
		t.Errorf("walk from the cut saw %d entries, want %d", seen, want)
	}
}
