package store

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"epidemic/internal/timestamp"
)

// The store benchmarks compare the sharded store against a single-mutex
// reference replica (the seed's design) on mixed workloads, at -cpu 1, 4
// and 8. The reference implements the same semantics for the benched
// operations — incremental checksum, time-index recent list, cloned reads
// — behind one sync.Mutex, so the comparison isolates the locking scheme.

// benchStore is the operation surface the mixed workloads exercise; both
// *Store and *mutexStore satisfy it.
type benchStore interface {
	Update(key string, value Value) Entry
	Get(key string) (Entry, bool)
	Checksum() uint64
	RecentUpdates(now, tau int64) []Entry
	Now() int64
}

// mutexStore is the seed's store for the benched operations: one map, one
// incremental checksum, one time index, one mutex.
type mutexStore struct {
	mu      sync.Mutex
	clock   timestamp.Clock
	entries map[string]Entry
	sum     uint64
	index   timeIndex
}

func newMutexStore(clock timestamp.Clock) *mutexStore {
	return &mutexStore{clock: clock, entries: make(map[string]Entry)}
}

func (m *mutexStore) Update(key string, value Value) Entry {
	v := make(Value, len(value))
	copy(v, value)
	ts := m.clock.Now()
	e := Entry{Key: key, Value: v, Stamp: ts, Activation: ts}
	m.mu.Lock()
	if old, ok := m.entries[key]; ok {
		m.sum ^= old.hash()
		m.index.remove(old.Stamp, key)
	}
	m.entries[key] = e
	m.sum ^= e.hash()
	m.index.insert(e.Stamp, key)
	m.mu.Unlock()
	return e.clone()
}

func (m *mutexStore) Get(key string) (Entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		return Entry{}, false
	}
	return e.clone(), true
}

func (m *mutexStore) Checksum() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sum
}

func (m *mutexStore) RecentUpdates(now, tau int64) []Entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Entry
	for k := len(m.index.keys) - 1; k >= 0; k-- {
		rec := m.index.keys[k]
		if now-rec.stamp.Time >= tau {
			break
		}
		out = append(out, m.entries[rec.key].clone())
	}
	return out
}

func (m *mutexStore) Now() int64 { return m.clock.Read() }

const (
	benchKeys    = 32768 // keyspace both reads and writes span
	benchHotKeys = 64    // rewritten after aging: the fixed recent set for the pure recent-list benchmark
	benchTau     = 32    // recency window in simulated time units
)

// benchVariants pairs each store construction with its subbenchmark name.
var benchVariants = []struct {
	name string
	mk   func(timestamp.Clock) benchStore
}{
	{"sharded", func(c timestamp.Clock) benchStore { return New(1, c) }},
	{"mutex", func(c timestamp.Clock) benchStore { return newMutexStore(c) }},
}

// benchSetup preloads the keyspace, ages it past the recency window, then
// rewrites the hot prefix so a run that performs no updates still has a
// fixed recent set for RecentUpdates to return.
func benchSetup(mk func(timestamp.Clock) benchStore) (benchStore, []string, *timestamp.Simulated) {
	src := timestamp.NewSimulated(1)
	s := mk(src.ClockAt(1))
	keys := make([]string, benchKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%04d", i)
		s.Update(keys[i], Value("0123456789abcdef"))
	}
	src.Advance(2 * benchTau)
	for i := 0; i < benchHotKeys; i++ {
		s.Update(keys[i], Value("0123456789abcdef"))
	}
	return s, keys, src
}

// benchMixed drives a randomized operation mix from every parallel worker.
// pUpdate/pChecksum/pRecent are percentages; the remainder is Get. Updates
// hit uniformly random keys — the store-wide behavior anti-entropy Apply
// traffic produces — and advance simulated time by one unit each, so the
// recency window slides and RecentUpdates stays bounded at ~tau entries.
func benchMixed(b *testing.B, mk func(timestamp.Clock) benchStore, pUpdate, pChecksum, pRecent int) {
	s, keys, src := benchSetup(mk)
	var seed int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(atomic.AddInt64(&seed, 1)))
		for pb.Next() {
			r := rng.Intn(100)
			switch {
			case r < pUpdate:
				s.Update(keys[rng.Intn(len(keys))], Value("fedcba9876543210"))
				src.Advance(1)
			case r < pUpdate+pChecksum:
				s.Checksum()
			case r < pUpdate+pChecksum+pRecent:
				s.RecentUpdates(s.Now(), benchTau)
			default:
				s.Get(keys[rng.Intn(len(keys))])
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
}

// BenchmarkStoreGetHeavy is the read-dominated mix a serving replica sees
// between gossip rounds: 88% Get, 10% Update, 1% Checksum, 1% RecentUpdates.
func BenchmarkStoreGetHeavy(b *testing.B) {
	for _, v := range benchVariants {
		b.Run(v.name, func(b *testing.B) { benchMixed(b, v.mk, 10, 1, 1) })
	}
}

// BenchmarkStoreWriteHeavy skews toward mutation: 50% Update, 44% Get,
// 5% Checksum, 1% RecentUpdates.
func BenchmarkStoreWriteHeavy(b *testing.B) {
	for _, v := range benchVariants {
		b.Run(v.name, func(b *testing.B) { benchMixed(b, v.mk, 50, 5, 1) })
	}
}

// BenchmarkStoreChecksum measures the anti-entropy comparison primitive
// alone: the per-shard fold vs the single-mutex read.
func BenchmarkStoreChecksum(b *testing.B) {
	for _, v := range benchVariants {
		b.Run(v.name, func(b *testing.B) { benchMixed(b, v.mk, 0, 100, 0) })
	}
}

// BenchmarkStoreRecentUpdates measures the merged recent-update list alone
// (the hot set stays at benchHotKeys entries throughout).
func BenchmarkStoreRecentUpdates(b *testing.B) {
	for _, v := range benchVariants {
		b.Run(v.name, func(b *testing.B) { benchMixed(b, v.mk, 0, 0, 100) })
	}
}
