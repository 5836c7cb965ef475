package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// expect is the last acknowledged state of a key: its value, or deleted.
type expect struct {
	val     string
	deleted bool
}

// book is one connection's record: the last acknowledged state of every
// key in the connection's own key range, per-window latencies, and
// failures. Only the connection's reader goroutine touches it while load
// runs.
type book struct {
	model map[string]expect
	// bin places completions in windows; latencies are recorded only
	// when record is set (not during preload or the gate).
	bin    binner
	record bool
	write  *windowed
	read   *windowed
	// acked counts answered requests; errReplies counts ERR or malformed
	// replies; ioErrors counts requests lost to a reset or timeout;
	// staleReads counts GETs of the connection's own keys at its own
	// replica that did not return the connection's last acked write.
	acked, errReplies, ioErrors, staleReads int
	firstErr                                error
}

func newBook() *book { return &book{model: make(map[string]expect)} }

// measure starts recording latencies into bin's windows.
func (b *book) measure(bin binner) {
	b.bin, b.record = bin, true
	b.write, b.read = newWindowed(bin.n), newWindowed(bin.n)
}

func (b *book) note(err error) {
	if b.firstErr == nil {
		b.firstErr = err
	}
}

// done is pipeline's reply callback.
func (b *book) done(o op, reply string, err error) {
	if err != nil {
		b.ioErrors++
		b.note(fmt.Errorf("%s: %w", o.line(), err))
		return
	}
	if err := checkReply(o, reply); err != nil {
		b.errReplies++
		b.note(err)
		return
	}
	b.acked++
	now := time.Now()
	switch o.kind {
	case opSet:
		b.model[o.key] = expect{val: o.val}
	case opDel:
		b.model[o.key] = expect{deleted: true}
	case opGet:
		if want, ok := b.model[o.key]; ok && !matches(want, reply) {
			b.staleReads++
			b.note(fmt.Errorf("read-your-writes: GET %s = %q, want %+v", o.key, reply, want))
		}
	}
	if !b.record {
		return
	}
	w := b.write
	if o.kind == opGet {
		w = b.read
	}
	w.add(b.bin.index(now), now.Sub(o.start), len(reply)+1)
}

func (b *book) failures() int { return b.errReplies + b.ioErrors + b.staleReads }

func matches(want expect, reply string) bool {
	if want.deleted {
		return reply == "MISSING"
	}
	return reply == "VALUE "+want.val
}

// keyName is key idx of connection conn's private range, so the last
// acknowledged value of every key is known exactly.
func keyName(conn, idx int) string { return "k" + strconv.Itoa(conn) + "_" + strconv.Itoa(idx) }

// mix is a closed-loop op generator over one connection's key range.
type mix struct {
	conn     int
	rng      *rand.Rand
	zipf     *rand.Zipf // nil: uniform keys
	nkeys    int
	setPct   int // percent SET; delPct percent DEL; the rest GET
	delPct   int
	seq      int
	deadline time.Time
	// pace, when set, caps the loop at one op per pace from start.
	pace  time.Duration
	start time.Time
	sent  int
}

func newMix(seed int64, conn, nkeys int, zipfS float64, setPct, delPct int, deadline time.Time) *mix {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(conn)))
	m := &mix{conn: conn, rng: rng, nkeys: nkeys, setPct: setPct, delPct: delPct, deadline: deadline}
	if zipfS > 1 {
		m.zipf = rand.NewZipf(rng, zipfS, 1, uint64(nkeys-1))
	}
	return m
}

func (m *mix) key() string {
	if m.zipf != nil {
		return keyName(m.conn, int(m.zipf.Uint64()))
	}
	return keyName(m.conn, m.rng.Intn(m.nkeys))
}

func (m *mix) op() op {
	k := m.key()
	r := m.rng.Intn(100)
	switch {
	case r < m.setPct:
		m.seq++
		return op{kind: opSet, key: k, val: valueFor(m.conn, m.seq)}
	case r < m.setPct+m.delPct:
		return op{kind: opDel, key: k}
	default:
		return op{kind: opGet, key: k}
	}
}

// next stops at the deadline (closed loop).
func (m *mix) next() (op, bool) {
	now := time.Now()
	if now.After(m.deadline) {
		return op{}, false
	}
	if m.pace > 0 {
		if m.start.IsZero() {
			m.start = now
		}
		// Sleep only when more than a timer tick ahead; a late loop
		// catches up in a burst.
		if ahead := m.start.Add(time.Duration(m.sent) * m.pace).Sub(now); ahead > time.Millisecond {
			time.Sleep(ahead)
		}
		m.sent++
	}
	return m.op(), true
}

// preload writes keys [0,n) of conn's range through one connection.
func preload(addr string, conn, n int, b *book) error {
	lc, err := dialLine(addr)
	if err != nil {
		return err
	}
	defer lc.close()
	i := 0
	pipeline(lc, 8, false, func() (op, bool) {
		if i >= n {
			return op{}, false
		}
		o := op{kind: opSet, key: keyName(conn, i), val: valueFor(conn, -i-1)}
		i++
		return o, true
	}, b.done)
	if b.failures() > 0 {
		return fmt.Errorf("preload: %w", b.firstErr)
	}
	return nil
}

// waitKeyCount polls KEYS at every replica until each holds at least n
// client keys.
func waitKeyCount(c *cluster, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, p := range c.reps {
		lc, err := dialLine(p.client)
		if err != nil {
			return err
		}
		for {
			line, err := lc.roundTrip("KEYS")
			if err != nil {
				lc.close()
				return err
			}
			if got := len(strings.Fields(line)) - 1; got >= n {
				break
			}
			if time.Now().After(deadline) {
				lc.close()
				return fmt.Errorf("replica %d: preload did not converge within %v", p.site, timeout)
			}
			time.Sleep(20 * time.Millisecond)
		}
		lc.close()
	}
	return nil
}

// gateResult is the correctness gate's verdict.
type gateResult struct {
	checked int // key×replica checks
	// lost counts acked writes some replica still does not hold after the
	// quiescence wait (absent, stale, or resurrected after a DEL).
	lost    int
	example string
	waited  time.Duration
}

// verify GETs every key of every model at every replica. Each replica must
// hold the key's last acked value, or MISSING after an acked DEL.
// Mismatches are re-checked until none remain or quiesce expires, since
// gossip may still be delivering when load stops.
func verify(c *cluster, models []map[string]expect, quiesce time.Duration) gateResult {
	want := make(map[string]expect)
	for _, m := range models {
		for k, v := range m {
			want[k] = v
		}
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	var res gateResult
	t0 := time.Now()
	deadline := t0.Add(quiesce)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range c.reps {
		wg.Add(1)
		go func(p *replica) {
			defer wg.Done()
			todo := keys
			for {
				bad, example, err := checkKeys(p, todo, want)
				mu.Lock()
				if len(todo) == len(keys) {
					res.checked += len(keys)
				}
				mu.Unlock()
				if err == nil && len(bad) == 0 {
					return
				}
				if time.Now().After(deadline) {
					mu.Lock()
					res.lost += len(bad)
					if err != nil {
						res.lost += len(todo) - len(bad)
						example = err.Error()
					}
					if res.example == "" {
						res.example = fmt.Sprintf("replica %d: %s", p.site, example)
					}
					mu.Unlock()
					return
				}
				if err == nil {
					todo = bad
				}
				time.Sleep(100 * time.Millisecond)
			}
		}(p)
	}
	wg.Wait()
	res.waited = time.Since(t0)
	return res
}

// checkKeys GETs keys at one replica and returns those not in the wanted
// state.
func checkKeys(p *replica, keys []string, want map[string]expect) (bad []string, example string, err error) {
	lc, err := dialLine(p.client)
	if err != nil {
		return nil, "", err
	}
	defer lc.close()
	i := 0
	var ioErr error
	pipeline(lc, 256, false, func() (op, bool) {
		if i >= len(keys) {
			return op{}, false
		}
		i++
		return op{kind: opGet, key: keys[i-1]}, true
	}, func(o op, reply string, err error) {
		if err != nil {
			ioErr = err
			return
		}
		if w := want[o.key]; !matches(w, reply) {
			if example == "" {
				example = fmt.Sprintf("GET %s = %q, want %+v", o.key, reply, w)
			}
			bad = append(bad, o.key)
		}
	})
	return bad, example, ioErr
}
