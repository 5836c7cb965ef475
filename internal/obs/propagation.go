package obs

import (
	"container/heap"
	"sort"
	"sync"
)

// Propagation tracks per-update infection timestamps across a set of
// replicas and derives the paper's convergence observables: t_last (time
// until the last susceptible site is infected), t_avg (mean infection
// delay over infected sites), and residue (the fraction of sites an
// update never reached, §1.4). Times are in abstract stamp units — wall
// nanoseconds on real nodes, simulated ticks in the sim cluster — and
// converted to seconds via secondsPerUnit.
//
// Tracking is idempotent per (key, site): only the first infection of a
// site counts, so redundant apply reports (e.g. both parties of an
// anti-entropy exchange reporting the same repaired key) are harmless. A
// newer origin for a key (a re-update) resets its track.
// Tracking is bounded: at most capacity keys are tracked at once, and the
// key with the oldest origin is evicted to admit a newer one, so a
// long-running node's tracker cannot grow without limit. Observables for
// retained keys are unaffected by evictions.
type Propagation struct {
	mu             sync.Mutex
	secondsPerUnit float64
	hist           *Histogram // optional: observed once per new infection
	updates        map[string]*track
	byAge          ageHeap // the same tracks, in eviction order
	capacity       int
}

// DefaultPropagationCap bounds the tracked-update map when no explicit
// capacity is set.
const DefaultPropagationCap = 1024

type track struct {
	key       string
	origin    int64
	firstSeen map[int32]int64 // site -> stamp-unit time of first infection
	pos       int             // index in Propagation.byAge
}

// ageHeap is a min-heap of tracks in eviction order: oldest origin first,
// ties broken by the smaller key for determinism.
type ageHeap []*track

func (h ageHeap) Len() int { return len(h) }

func (h ageHeap) Less(i, j int) bool {
	if h[i].origin != h[j].origin {
		return h[i].origin < h[j].origin
	}
	return h[i].key < h[j].key
}

func (h ageHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}

func (h *ageHeap) Push(x any) {
	tr := x.(*track)
	tr.pos = len(*h)
	*h = append(*h, tr)
}

func (h *ageHeap) Pop() any {
	old := *h
	tr := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return tr
}

// NewPropagation builds a tracker. secondsPerUnit scales stamp units to
// seconds (1e-9 for wall-clock nanoseconds, 1 to treat simulated ticks as
// seconds); hist, when non-nil, receives one observation per new
// infection.
func NewPropagation(secondsPerUnit float64, hist *Histogram) *Propagation {
	if secondsPerUnit <= 0 {
		secondsPerUnit = 1e-9
	}
	return &Propagation{
		secondsPerUnit: secondsPerUnit,
		hist:           hist,
		updates:        make(map[string]*track),
		capacity:       DefaultPropagationCap,
	}
}

// SetCapacity bounds the number of simultaneously tracked keys (values
// <= 0 restore DefaultPropagationCap). Shrinking below the current track
// count evicts oldest-origin keys immediately.
func (p *Propagation) SetCapacity(n int) {
	if n <= 0 {
		n = DefaultPropagationCap
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.capacity = n
	p.evictLocked()
}

// Tracked returns the number of keys currently tracked — exported as the
// epidemic_propagation_tracked gauge.
func (p *Propagation) Tracked() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.updates)
}

// evictLocked drops oldest-origin keys (ties broken by smaller key, for
// determinism) until the map fits the capacity, O(log n) per victim.
// Caller holds p.mu.
func (p *Propagation) evictLocked() {
	for len(p.updates) > p.capacity {
		delete(p.updates, heap.Pop(&p.byAge).(*track).key)
	}
}

// ensure returns the track for (key, origin), resetting it when origin is
// newer than the tracked version and ignoring nothing — stale origins keep
// the existing track.
func (p *Propagation) ensure(key string, origin int64) *track {
	tr, ok := p.updates[key]
	switch {
	case !ok:
		tr = &track{key: key, origin: origin, firstSeen: make(map[int32]int64)}
		p.updates[key] = tr
		heap.Push(&p.byAge, tr)
		p.evictLocked()
	case origin > tr.origin:
		tr.origin = origin
		clear(tr.firstSeen)
		heap.Fix(&p.byAge, tr.pos)
	}
	return tr
}

// Originated records that site accepted the update for key locally at
// origin (its timestamp's time component). The originating site counts as
// infected with zero delay.
func (p *Propagation) Originated(key string, site int32, origin int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	tr := p.ensure(key, origin)
	if origin < tr.origin {
		return // stale version of the key
	}
	if _, ok := tr.firstSeen[site]; !ok {
		tr.firstSeen[site] = origin
	}
}

// Infected records that site first applied the update for key (originated
// at origin) at time at. Duplicate reports for a site are ignored.
func (p *Propagation) Infected(key string, site int32, origin, at int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	tr := p.ensure(key, origin)
	if origin < tr.origin {
		return // applying an already superseded version
	}
	if _, ok := tr.firstSeen[site]; ok {
		return
	}
	tr.firstSeen[site] = at
	if p.hist != nil {
		p.hist.Observe(p.delay(tr.origin, at))
	}
}

func (p *Propagation) delay(origin, at int64) float64 {
	d := at - origin
	if d < 0 {
		d = 0 // clock skew between sites; the paper assumes ε ≪ τ
	}
	return float64(d) * p.secondsPerUnit
}

// TLast returns the delay, in seconds, until the last currently infected
// site received key's update — the paper's t_last once propagation has
// quiesced.
func (p *Propagation) TLast(key string) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	tr, ok := p.updates[key]
	if !ok || len(tr.firstSeen) == 0 {
		return 0, false
	}
	max := 0.0
	for _, at := range tr.firstSeen {
		if d := p.delay(tr.origin, at); d > max {
			max = d
		}
	}
	return max, true
}

// TAvg returns the mean infection delay in seconds over all infected
// sites, the originating site included with delay zero.
func (p *Propagation) TAvg(key string) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	tr, ok := p.updates[key]
	if !ok || len(tr.firstSeen) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, at := range tr.firstSeen {
		sum += p.delay(tr.origin, at)
	}
	return sum / float64(len(tr.firstSeen)), true
}

// InfectedCount returns how many sites hold key's tracked update.
func (p *Propagation) InfectedCount(key string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	tr, ok := p.updates[key]
	if !ok {
		return 0
	}
	return len(tr.firstSeen)
}

// Residue returns the fraction of n sites key's update never reached —
// the paper's residue s/n (§1.4).
func (p *Propagation) Residue(key string, n int) float64 {
	if n <= 0 {
		return 0
	}
	infected := p.InfectedCount(key)
	if infected > n {
		infected = n
	}
	return float64(n-infected) / float64(n)
}

// Keys returns the tracked update keys, sorted.
func (p *Propagation) Keys() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.updates))
	for k := range p.updates {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
