package main

import (
	"math"
	"sort"
	"time"
)

// samples collects durations in nanoseconds.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

// quantileMs returns the nearest-rank q-quantile in milliseconds, or NaN
// when there are no samples. It sorts s in place.
func (s samples) quantileMs(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / 1e6
}

// median returns the median of the non-NaN values in xs (mean of the
// middle pair for even counts), or NaN for none. It does not modify xs.
func median(xs []float64) float64 {
	c := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			c = append(c, x)
		}
	}
	if len(c) == 0 {
		return math.NaN()
	}
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// ratio returns a/b, or NaN when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// binner maps a completion time to its window of the measured interval
// [t0, t0+n*width).
type binner struct {
	t0    time.Time
	width time.Duration
	n     int
}

// index returns the window holding t, or -1 outside the interval.
func (b binner) index(t time.Time) int {
	d := t.Sub(b.t0)
	if d < 0 {
		return -1
	}
	i := int(d / b.width)
	if i >= b.n {
		return -1
	}
	return i
}

// windowed holds one stream's latencies and reply bytes per window. A
// metric is the median over windows of its per-window value, so one
// disturbed window (a GC pause, a burst of rumor traffic, a noisy
// neighbour on the host) moves a run's figure by at most one rank.
type windowed struct {
	lat   []samples
	bytes []int64
}

func newWindowed(n int) *windowed {
	return &windowed{lat: make([]samples, n), bytes: make([]int64, n)}
}

// add records a request completed in window i (ignored when i is -1).
func (w *windowed) add(i int, d time.Duration, replyBytes int) {
	if i < 0 || i >= len(w.lat) {
		return
	}
	w.lat[i].add(d)
	w.bytes[i] += int64(replyBytes)
}

// grow appends a window (rejoin: one per kill/restart cycle).
func (w *windowed) grow() int {
	w.lat = append(w.lat, nil)
	w.bytes = append(w.bytes, 0)
	return len(w.lat) - 1
}

// merge adds o's windows into w's, window by window.
func (w *windowed) merge(o *windowed) {
	for len(w.lat) < len(o.lat) {
		w.grow()
	}
	for i := range o.lat {
		w.lat[i] = append(w.lat[i], o.lat[i]...)
		w.bytes[i] += o.bytes[i]
	}
}

func (w *windowed) count(i int) int { return len(w.lat[i]) }

func (w *windowed) total() int {
	n := 0
	for _, l := range w.lat {
		n += len(l)
	}
	return n
}

// quantileMs is the median over windows of each window's q-quantile,
// using only windows with at least ten samples beyond the quantile. When
// no window has that many, it is the q-quantile of all samples pooled.
func (w *windowed) quantileMs(q float64) float64 {
	need := int(math.Ceil(10 / (1 - q)))
	var per []float64
	for _, l := range w.lat {
		if len(l) >= need {
			per = append(per, l.quantileMs(q))
		}
	}
	if len(per) > 0 {
		return median(per)
	}
	var all samples
	for _, l := range w.lat {
		all = append(all, l...)
	}
	return all.quantileMs(q)
}
