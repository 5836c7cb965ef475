package store

import (
	"math"

	"epidemic/internal/timestamp"
)

// liveSum returns this shard's checksum excluding dormant death
// certificates (activation older than tau1 at time now). Caller holds
// sh.mu (read suffices).
func (sh *shard) liveSum(now, tau1 int64) uint64 {
	sum := sh.sum
	for key := range sh.deaths {
		e := sh.entries[key]
		if now-e.Activation.Time > tau1 {
			sum ^= e.hash()
		}
	}
	return sum
}

// sumAt returns this shard's live checksum as of cut: entries stamped
// after cut are left out and death certificates are judged dormant at cut.
// The incremental sum already covers everything, so only the few index
// records newer than cut are hashed back out. None of them can be dormant
// at cut: a certificate's activation is never older than its stamp. Caller
// holds sh.mu (read suffices).
func (sh *shard) sumAt(cut, tau1 int64) uint64 {
	sum := sh.liveSum(cut, tau1)
	for k := len(sh.index.keys) - 1; k >= 0 && sh.index.keys[k].stamp.Time > cut; k-- {
		sum ^= sh.entries[sh.index.keys[k].key].hash()
	}
	return sum
}

// CutBound is the exclusive peel bound that starts a reverse-timestamp
// walk at cut: every entry stamped at or before cut orders strictly before
// it, and no later entry does.
func CutBound(cut int64) timestamp.T {
	return timestamp.T{Time: cut + 1, Site: math.MinInt32}
}

// ChecksumAt returns the live checksum of the database as of cut: only
// entries stamped at or before cut count, and dormancy is judged at cut.
// Two replicas that compare figures at one agreed cut are unaffected by
// writes landing after it, which is what lets a wire anti-entropy
// conversation fix its target at round 0.
func (s *Store) ChecksumAt(cut, tau1 int64) uint64 {
	var sum uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		sum ^= sh.sumAt(cut, tau1)
		sh.mu.RUnlock()
	}
	return sum
}

// AppendChecksumVectorAt appends the per-shard checksums as of cut (see
// ChecksumAt) to dst and returns the extended slice; XOR-folding the
// appended words reproduces ChecksumAt.
func (s *Store) AppendChecksumVectorAt(dst []uint64, cut, tau1 int64) []uint64 {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		dst = append(dst, sh.sumAt(cut, tau1))
		sh.mu.RUnlock()
	}
	return dst
}

// ChecksumShardAt returns shard i's checksum as of cut. Like slice
// indexing, i must be in [0, Shards).
func (s *Store) ChecksumShardAt(i int, cut, tau1 int64) uint64 {
	sh := &s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.sumAt(cut, tau1)
}

// ChecksumVector returns the per-shard live checksums (dormant death
// certificates excluded, exactly as ChecksumLive) as one slice indexed by
// shard. Each shard is read under its own lock with no merge, so the
// vector costs O(S + deaths) regardless of database size, and XOR-folding
// it reproduces ChecksumLive. Every store places a key in the same stripe
// (FNV-1a masked to Shards), which is what lets anti-entropy compare
// vectors across replicas and localize divergence to stripes.
func (s *Store) ChecksumVector(now, tau1 int64) []uint64 {
	return s.AppendChecksumVector(nil, now, tau1)
}

// AppendChecksumVector appends the per-shard live checksums to dst and
// returns the extended slice, so wire-path callers can reuse a pooled
// backing array instead of allocating a fresh vector per exchange.
func (s *Store) AppendChecksumVector(dst []uint64, now, tau1 int64) []uint64 {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		dst = append(dst, sh.liveSum(now, tau1))
		sh.mu.RUnlock()
	}
	return dst
}

// ChecksumShard returns the live checksum of shard i alone. Like slice
// indexing, i must be in [0, Shards).
func (s *Store) ChecksumShard(i int, now, tau1 int64) uint64 {
	sh := &s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.liveSum(now, tau1)
}

// PeelBatchShard returns one batch of the reverse-timestamp walk that
// wire-level peel-back anti-entropy performs (§1.3/§1.5), confined to
// shard i: up to limit of that shard's index records strictly older than
// bound are examined newest first, and the non-dormant ones among them are
// returned. next is the timestamp of the oldest record examined — pass it
// back as the bound of the following call to resume the walk — and more
// reports whether records older than next remain. Pass PeelStart (or a
// CutBound) to begin at the newest entry; limit <= 0 examines everything
// at once.
//
// Examined-versus-returned matters: dormant death certificates are skipped
// on the wire (§2.2) but still advance the walk, so the resume bound stays
// well-defined even when a whole batch is dormant. Shard-vector
// anti-entropy walks only the diverged stripes this way, so a δ-entry
// divergence under a deep database examines O(δ + N/S) records per
// diverged stripe instead of O(N) for the whole store.
func (s *Store) PeelBatchShard(i int, bound timestamp.T, limit int, now, tau1 int64) (batch []Entry, next timestamp.T, more bool) {
	sh := &s.shards[i]
	sh.mu.RLock()
	recs, total := sh.collectOlder(bound, limit)
	sh.mu.RUnlock()
	if len(recs) == 0 {
		return nil, bound, false
	}
	batch = make([]Entry, 0, len(recs))
	for _, e := range recs {
		if !IsDormant(e, now, tau1) {
			batch = append(batch, e)
		}
		next = e.Stamp
	}
	return batch, next, total > len(recs)
}
