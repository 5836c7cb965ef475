package obs_test

import (
	"fmt"
	"testing"
	"time"

	"epidemic/internal/node"
	"epidemic/internal/obs"
	"epidemic/internal/obs/history"
	"epidemic/internal/store"
)

// TestHistorySampleOfLargeStoreZeroAlloc gates the store-size gauge: one
// history tick over an instrumented node holding 100k keys must count the
// keys without copying or sorting them.
func TestHistorySampleOfLargeStoreZeroAlloc(t *testing.T) {
	n, err := node.New(node.Config{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100_000; i++ {
		n.Store().Update(fmt.Sprintf("k%06d", i), store.Value("v"))
	}
	reg := obs.NewRegistry()
	n.SetOnEvent(obs.InstrumentNode(reg, n, obs.ObserveOptions{}))
	s := history.New(reg, history.Config{Step: time.Second, Retention: time.Minute})
	s.Sample(0) // build the plan
	tick := int64(1)
	allocs := testing.AllocsPerRun(20, func() {
		s.Sample(tick)
		tick++
	})
	if allocs != 0 {
		t.Errorf("history sample allocates %v per tick with 100k keys, want 0", allocs)
	}
	if got, ok := s.Last(obs.MetricStoreKeys); !ok || got.V != 100_000 {
		t.Errorf("%s = %+v (ok=%v), want 100000", obs.MetricStoreKeys, got, ok)
	}
}

// TestHistorySampleOfManyHotRumorsZeroAlloc gates the hot-rumor gauge: one
// history tick over a node with 10k hot rumors must count them without
// copying, sorting or pruning the list.
func TestHistorySampleOfManyHotRumorsZeroAlloc(t *testing.T) {
	n, err := node.New(node.Config{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		n.Update(fmt.Sprintf("k%05d", i), store.Value("v")) // no direct mail: every update is hot
	}
	reg := obs.NewRegistry()
	n.SetOnEvent(obs.InstrumentNode(reg, n, obs.ObserveOptions{}))
	s := history.New(reg, history.Config{Step: time.Second, Retention: time.Minute})
	s.Sample(0) // build the plan
	tick := int64(1)
	allocs := testing.AllocsPerRun(20, func() {
		s.Sample(tick)
		tick++
	})
	if allocs != 0 {
		t.Errorf("history sample allocates %v per tick with 10k hot rumors, want 0", allocs)
	}
	if got, ok := s.Last(obs.MetricHotRumors); !ok || got.V != 10_000 {
		t.Errorf("%s = %+v (ok=%v), want 10000", obs.MetricHotRumors, got, ok)
	}
}
