package store

import (
	"math"

	"epidemic/internal/timestamp"
)

// PeelStart is the exclusive upper bound that makes a peel walk
// (NewestFirst, PeelBatchShard) begin at the newest entry: it orders after
// every timestamp a clock can issue.
var PeelStart = timestamp.T{Time: math.MaxInt64, Site: math.MaxInt32, Seq: math.MaxUint32}

// LiveSnapshot returns a copy of every non-dormant entry — the payload of
// a full-database exchange, which excludes dormant death certificates
// (§2.2). Entries are in global timestamp order, oldest first, merged from
// the per-shard indexes.
func (s *Store) LiveSnapshot(now, tau1 int64) []Entry {
	per := make([][]Entry, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		recs := make([]Entry, 0, len(sh.index.keys))
		for _, rec := range sh.index.keys {
			e := sh.entries[rec.key]
			if !IsDormant(e, now, tau1) {
				recs = append(recs, e.clone())
			}
		}
		sh.mu.RUnlock()
		per[i] = recs
	}
	return mergeAsc(per)
}
