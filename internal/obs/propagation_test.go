package obs

import (
	"fmt"
	"math"
	"testing"
)

func TestPropagationObservables(t *testing.T) {
	p := NewPropagation(1, nil) // ticks are seconds
	p.Originated("k", 0, 10)
	p.Infected("k", 1, 10, 12)
	p.Infected("k", 2, 10, 15)
	p.Infected("k", 2, 10, 99) // duplicate: first infection wins

	if got := p.InfectedCount("k"); got != 3 {
		t.Errorf("infected = %d", got)
	}
	if last, ok := p.TLast("k"); !ok || last != 5 {
		t.Errorf("t_last = %v, %v", last, ok)
	}
	if avg, ok := p.TAvg("k"); !ok || math.Abs(avg-(0+2+5)/3.0) > 1e-12 {
		t.Errorf("t_avg = %v, %v", avg, ok)
	}
	if res := p.Residue("k", 5); res != 2.0/5 {
		t.Errorf("residue = %v", res)
	}
	if res := p.Residue("unknown", 5); res != 1 {
		t.Errorf("unknown residue = %v", res)
	}
}

func TestPropagationReupdateResets(t *testing.T) {
	p := NewPropagation(1, nil)
	p.Originated("k", 0, 10)
	p.Infected("k", 1, 10, 11)
	// A newer version of k resets the track.
	p.Originated("k", 2, 20)
	if got := p.InfectedCount("k"); got != 1 {
		t.Errorf("infected after re-update = %d", got)
	}
	// Stale applies of the superseded version are ignored.
	p.Infected("k", 3, 10, 25)
	if got := p.InfectedCount("k"); got != 1 {
		t.Errorf("stale apply counted: %d", got)
	}
}

func TestPropagationEviction(t *testing.T) {
	p := NewPropagation(1, nil)
	p.SetCapacity(2)

	p.Originated("old", 0, 10)
	p.Infected("old", 1, 10, 12)
	p.Originated("mid", 0, 20)
	p.Infected("mid", 1, 20, 23)
	if got := p.Tracked(); got != 2 {
		t.Fatalf("tracked = %d", got)
	}

	// Admitting a third key evicts the oldest origin ("old") and leaves
	// the retained keys' observables untouched.
	p.Originated("new", 0, 30)
	p.Infected("new", 1, 30, 34)
	if got := p.Tracked(); got != 2 {
		t.Fatalf("tracked after eviction = %d", got)
	}
	if _, ok := p.TLast("old"); ok {
		t.Error("evicted key still tracked")
	}
	if res := p.Residue("old", 2); res != 1 {
		t.Errorf("evicted residue = %v", res)
	}
	if last, ok := p.TLast("mid"); !ok || last != 3 {
		t.Errorf("retained t_last(mid) = %v, %v", last, ok)
	}
	if last, ok := p.TLast("new"); !ok || last != 4 {
		t.Errorf("retained t_last(new) = %v, %v", last, ok)
	}
	if res := p.Residue("mid", 2); res != 0 {
		t.Errorf("retained residue(mid) = %v", res)
	}
	if keys := p.Keys(); len(keys) != 2 || keys[0] != "mid" || keys[1] != "new" {
		t.Errorf("keys = %v", keys)
	}

	// Shrinking evicts immediately.
	p.SetCapacity(1)
	if keys := p.Keys(); len(keys) != 1 || keys[0] != "new" {
		t.Errorf("keys after shrink = %v", keys)
	}
}

func TestPropagationHistogramAndSkew(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("epidemic_update_propagation_seconds", "x", []float64{1, 10})
	p := NewPropagation(1, h)
	p.Originated("k", 0, 100)
	p.Infected("k", 1, 100, 105)
	p.Infected("k", 2, 100, 95) // skewed clock: clamped to 0
	if h.Count() != 2 {
		t.Errorf("histogram count = %d", h.Count())
	}
	if h.Sum() != 5 {
		t.Errorf("histogram sum = %v", h.Sum())
	}
	if last, _ := p.TLast("k"); last != 5 {
		t.Errorf("t_last with skew = %v", last)
	}
	if keys := p.Keys(); len(keys) != 1 || keys[0] != "k" {
		t.Errorf("keys = %v", keys)
	}
}

// TestPropagationEvictionOrder pins the heap's order: ties on origin evict
// the smaller key, and a re-update moves a key to the back of the line.
func TestPropagationEvictionOrder(t *testing.T) {
	p := NewPropagation(1, nil)
	p.SetCapacity(2)
	p.Originated("b", 0, 10)
	p.Originated("a", 0, 10)
	p.Originated("c", 0, 20) // evicts "a": same origin as "b", smaller key
	if got := fmt.Sprint(p.Keys()); got != "[b c]" {
		t.Fatalf("after tie eviction keys = %s, want [b c]", got)
	}
	p.Originated("b", 0, 30) // re-update: "c" is now the oldest
	p.Originated("d", 0, 25)
	if got := fmt.Sprint(p.Keys()); got != "[b d]" {
		t.Fatalf("after re-update eviction keys = %s, want [b d]", got)
	}
}

// BenchmarkPropagationAdmitAtCapacity admits a new key into a full tracker
// on every op: the per-update eviction cost a busy daemon pays.
func BenchmarkPropagationAdmitAtCapacity(b *testing.B) {
	p := NewPropagation(1, nil)
	keys := make([]string, 4*DefaultPropagationCap)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
	}
	for i := 0; i < DefaultPropagationCap; i++ {
		p.Originated(keys[i], 1, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := DefaultPropagationCap + i
		p.Originated(keys[n%len(keys)], 1, int64(n))
	}
}
