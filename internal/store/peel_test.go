package store

import (
	"testing"

	"epidemic/internal/timestamp"
)

// buildPeelStore writes n entries at distinct ticks, every one on the same
// lock stripe so a single shard walk sees them all, and returns the store,
// that stripe, and the shared clock source.
func buildPeelStore(t *testing.T, site timestamp.SiteID, n int) (*Store, int, *timestamp.Simulated) {
	t.Helper()
	src := timestamp.NewSimulated(1)
	st := New(site, src.ClockAt(site))
	keys := sameShardKeys(st, n)
	for _, k := range keys {
		st.Update(k, Value("v"))
		src.Advance(1)
	}
	return st, shardIndex(st, keys[0]), src
}

func key(i int) string {
	return "k" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
}

// shardIndex is the lock stripe key hashes onto.
func shardIndex(st *Store, k string) int {
	for i := range st.shards {
		if st.shardFor(k) == &st.shards[i] {
			return i
		}
	}
	panic("key on no stripe")
}

// sameShardKeys returns n distinct keys that all hash onto key(0)'s stripe.
func sameShardKeys(st *Store, n int) []string {
	want := st.shardFor(key(0))
	var out []string
	for i := 0; len(out) < n; i++ {
		if st.shardFor(key(i)) == want {
			out = append(out, key(i))
		}
	}
	return out
}

func TestPeelBatchWalksNewestFirst(t *testing.T) {
	st, sh, _ := buildPeelStore(t, 1, 10)
	now := st.Now()

	batch, next, more := st.PeelBatchShard(sh, PeelStart, 4, now, 1<<40)
	if len(batch) != 4 || !more {
		t.Fatalf("first batch = %d entries, more=%v", len(batch), more)
	}
	if batch[0].Stamp.Less(batch[3].Stamp) {
		t.Errorf("batch not newest-first: %v then %v", batch[0].Stamp, batch[3].Stamp)
	}

	// Resuming from next yields strictly older entries, no overlap.
	seen := map[string]bool{}
	for _, e := range batch {
		seen[e.Key] = true
	}
	total := len(batch)
	for more {
		batch, next, more = st.PeelBatchShard(sh, next, 4, now, 1<<40)
		for _, e := range batch {
			if seen[e.Key] {
				t.Fatalf("key %q returned twice", e.Key)
			}
			seen[e.Key] = true
		}
		total += len(batch)
	}
	if total != 10 {
		t.Errorf("walk returned %d entries, want 10", total)
	}

	// An exhausted walk stays exhausted.
	if batch, _, more := st.PeelBatchShard(sh, next, 4, now, 1<<40); len(batch) != 0 || more {
		t.Errorf("walk past the end returned %d entries, more=%v", len(batch), more)
	}
}

func TestPeelBatchSkipsDormantButAdvances(t *testing.T) {
	src := timestamp.NewSimulated(1)
	st := New(1, src.ClockAt(1))
	keys := sameShardKeys(st, 4)
	sh := shardIndex(st, keys[0])
	// Three old deletions, then one fresh update. With tau1=10 the
	// certificates are dormant by the time we peel.
	for _, k := range keys[:3] {
		st.Update(k, Value("v"))
		st.Delete(k, nil)
		src.Advance(100)
	}
	st.Update(keys[3], Value("v"))
	now := st.Now()

	batch, next, more := st.PeelBatchShard(sh, PeelStart, 2, now, 10)
	if len(batch) != 1 || batch[0].Key != keys[3] {
		t.Fatalf("first batch = %+v, want only the fresh entry", batch)
	}
	if !more {
		t.Fatal("walk should continue past the first two records")
	}
	// The rest of the walk must terminate despite every record being
	// dormant, with the bound advancing through them.
	for more {
		batch, next, more = st.PeelBatchShard(sh, next, 2, now, 10)
		if len(batch) != 0 {
			t.Fatalf("dormant batch returned entries: %+v", batch)
		}
	}
}

func TestPeelBatchZeroLimitReturnsAll(t *testing.T) {
	st, sh, _ := buildPeelStore(t, 1, 7)
	batch, _, more := st.PeelBatchShard(sh, PeelStart, 0, st.Now(), 1<<40)
	if len(batch) != 7 || more {
		t.Errorf("limit 0 returned %d entries, more=%v", len(batch), more)
	}
}

func TestLiveSnapshotExcludesDormant(t *testing.T) {
	src := timestamp.NewSimulated(1)
	st := New(1, src.ClockAt(1))
	st.Update("keep", Value("v"))
	st.Update("doomed", Value("v"))
	st.Delete("doomed", nil)
	src.Advance(100)
	st.Update("late", Value("v"))

	live := st.LiveSnapshot(st.Now(), 10)
	if len(live) != 2 {
		t.Fatalf("live snapshot = %d entries, want 2: %+v", len(live), live)
	}
	for _, e := range live {
		if e.Key == "doomed" {
			t.Error("dormant certificate leaked into live snapshot")
		}
	}
	// With a generous tau1 the certificate is still live and included.
	if live := st.LiveSnapshot(st.Now(), 1<<40); len(live) != 3 {
		t.Errorf("all-live snapshot = %d entries, want 3", len(live))
	}
}
