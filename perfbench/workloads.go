package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Workload sizes. Closed-loop connections keep depth requests in flight;
// the open loop (steady) sends on a fixed schedule well below the rate at
// which the replicas' outbound mail queues start to drop.
const (
	depth = 16
	// ingestRate caps the ingest loop below the replicas' saturation on a
	// 2-core VM (~10k req/s): at saturation its throughput and per-request
	// costs moved 17-25% between runs with the host's CPU steal.
	ingestRate     = 5000 // requests per second over both connections
	zipfS          = 1.1
	ingestKeys     = 100_000 // per connection
	browseKeys     = 20_000  // per connection; both ranges are preloaded
	steadyKeys     = 1_000_000
	steadyRate     = 2000   // requests per second: half SET, half GET
	rejoinKeys     = 10_000 // per connection; both ranges are preloaded
	rejoinDeltaPct = 1.5    // missed writes per cycle, percent of the store
	launches       = 3      // cluster launches per run; setup_s takes their median
	windowsPerRun  = 10     // measured interval splits into this many windows
	quiesce        = 45 * time.Second
	// latenessBound is the open loop's validity bound: a run whose p99
	// send lateness exceeds it measured a backlogged generator, not the
	// replicas, and is marked invalid. On a shared 2-core VM, Go's timer
	// wakeups alone run 5-30 ms late at p99 while the replicas are busy.
	latenessBound = 100 * time.Millisecond
)

// The rejoin workload compresses the protocol's timers so one run holds
// many kill/restart cycles: τ (20 anti-entropy periods) is one second and
// a rumor dies within about a second, instead of 100 s and several.
var (
	rejoinAEEvery    = 50 * time.Millisecond
	rejoinRumorEvery = 100 * time.Millisecond
)

// e2eResult is what one untraced run measured. Per-window slices hold one
// value per window of the measured interval (rejoin: per kill/restart
// cycle); the reported metric is their median.
type e2eResult struct {
	setup    time.Duration
	launches []time.Duration
	preload  time.Duration
	// preloadWrite is the part of preload spent writing; the rest waited
	// for every replica to hold the preloaded keys.
	preloadWrite time.Duration
	measured     time.Duration

	write, read, visible *windowed
	// probes are the prober's SETs and poll GETs. They are left out of the
	// request count and so out of every per-request denominator: the polls
	// repeat until a write is visible, so their number grows with
	// propagation delay. Their reply bytes are still subtracted from wchar.
	probes          *windowed
	opsW, cpuW, txW []float64
	// Totals over the measured interval (not rejoin): workload requests,
	// probe requests, replica CPU and wchar, and client reply bytes.
	ops      float64
	probeOps float64
	proc     procSample
	replyB   int64
	catchup  []float64
	missed   int
	lateness samples

	attempted, failed int
	unseen            int
	firstErr          error
	gate              gateResult
	invalid           string
	idleCPU           float64 // replica ms of CPU per wall second before load
	stealPct          float64 // host steal from load start through the gate, percent
	procs             []int   // GOMAXPROCS of each replica
}

func newResult() *e2eResult {
	return &e2eResult{write: newWindowed(0), read: newWindowed(0), visible: newWindowed(0), probes: newWindowed(0)}
}

// launchCluster launches the replicas `launches` times, keeping the last
// cluster running, and records each launch time.
func launchCluster(c *cluster, res *e2eResult) error {
	for i := 0; i < launches; i++ {
		for _, p := range c.reps {
			if err := os.Remove(p.snapshotPath()); err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
		}
		d, err := c.launch(30 * time.Second)
		if err != nil {
			return err
		}
		res.launches = append(res.launches, d)
		if i < launches-1 {
			c.stop()
		}
	}
	secs := make([]float64, len(res.launches))
	for i, d := range res.launches {
		secs[i] = d.Seconds()
	}
	res.setup = time.Duration(median(secs) * float64(time.Second))
	for _, p := range c.reps {
		res.procs = append(res.procs, procGOMAXPROCS(p.pid()))
	}
	return nil
}

// measureIdle samples replica CPU over an idle period before any load.
func measureIdle(c *cluster, res *e2eResult, d time.Duration) error {
	a, err := c.sample()
	if err != nil {
		return err
	}
	t0 := time.Now()
	time.Sleep(d)
	b, err := c.sample()
	if err != nil {
		return err
	}
	res.idleCPU = float64(b.sub(a).cpu.Microseconds()) / 1e3 / time.Since(t0).Seconds()
	return nil
}

// preloadAll writes each connection's range [0,n) at its replica, in
// parallel, then waits until every replica holds all of them. The elapsed
// time is part of setup.
func preloadAll(c *cluster, targets []*replica, books []*book, n int, res *e2eResult) error {
	t0 := time.Now()
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, p := range targets {
		wg.Add(1)
		go func(i int, p *replica) {
			defer wg.Done()
			errs[i] = preload(p.client, i, n, books[i])
		}(i, p)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	res.preloadWrite = time.Since(t0)
	if err := waitKeyCount(c, n*len(targets), 60*time.Second); err != nil {
		return err
	}
	res.preload = time.Since(t0)
	res.setup += res.preload
	return nil
}

// sampleWindows reads the replicas' /proc counters at every window
// boundary of bin and returns the per-window deltas.
func sampleWindows(c *cluster, bin binner) ([]procSample, error) {
	var prev procSample
	out := make([]procSample, 0, bin.n)
	for k := 0; k <= bin.n; k++ {
		time.Sleep(time.Until(bin.t0.Add(time.Duration(k) * bin.width)))
		s, err := c.sample()
		if err != nil {
			return nil, err
		}
		if k > 0 {
			out = append(out, s.sub(prev))
		}
		prev = s
	}
	return out, nil
}

// measure runs load from bin.t0 to the end of its last window while the
// /proc sampler records each window, then derives the per-window request
// rate, CPU and bytes written per request.
func measure(c *cluster, bin binner, res *e2eResult, load func() error) error {
	var procW []procSample
	var procErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		procW, procErr = sampleWindows(c, bin)
	}()
	err := load()
	<-done
	if err != nil {
		return err
	}
	if procErr != nil {
		return procErr
	}
	res.measured = time.Duration(bin.n) * bin.width
	for i := 0; i < bin.n; i++ {
		ops := float64(res.write.count(i) + res.read.count(i))
		replies := res.write.bytes[i] + res.read.bytes[i] + res.probes.bytes[i]
		res.opsW = append(res.opsW, ops/bin.width.Seconds())
		res.cpuW = append(res.cpuW, ratio(float64(procW[i].cpu.Nanoseconds())/1e3, ops))
		res.txW = append(res.txW, ratio(float64(procW[i].wchar-replies), ops))
		res.ops += ops
		res.probeOps += float64(res.probes.count(i))
		res.proc = res.proc.add(procW[i])
		res.replyB += replies
	}
	return nil
}

// newBin lays out the measured interval: windowsPerRun windows starting
// shortly after now, so connections are dialled before it begins.
func newBin(seconds time.Duration) binner {
	return binner{t0: time.Now().Add(50 * time.Millisecond), width: seconds / windowsPerRun, n: windowsPerRun}
}

func (b binner) end() time.Time { return b.t0.Add(time.Duration(b.n) * b.width) }

// closedLoad runs one pipelined closed-loop connection per target with the
// given mix, plus the visibility prober, over bin's interval.
func closedLoad(c *cluster, targets []*replica, books []*book, mixes []*mix, pb *prober, bin binner, res *e2eResult) error {
	lcs := make([]*lineConn, len(targets))
	for i, p := range targets {
		lc, err := dialLine(p.client)
		if err != nil {
			return err
		}
		defer lc.close()
		lcs[i] = lc
		books[i].measure(bin)
	}
	return measure(c, bin, res, func() error {
		time.Sleep(time.Until(bin.t0))
		var wg sync.WaitGroup
		var prErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			prErr = pb.run(bin.end(), 5*time.Second)
		}()
		for i := range targets {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				pipeline(lcs[i], depth, false, mixes[i].next, books[i].done)
			}(i)
		}
		wg.Wait()
		for _, b := range books {
			res.absorb(b)
		}
		res.absorbProber(pb)
		return prErr
	})
}

func (res *e2eResult) absorb(b *book) {
	res.attempted += b.acked + b.errReplies + b.ioErrors
	res.failed += b.failures()
	res.write.merge(b.write)
	res.read.merge(b.read)
	if res.firstErr == nil {
		res.firstErr = b.firstErr
	}
}

func (res *e2eResult) absorbProber(pb *prober) {
	for _, b := range []*book{pb.writes, pb.polls} {
		res.attempted += b.acked + b.errReplies + b.ioErrors
		res.failed += b.failures()
		res.probes.merge(b.write)
		res.probes.merge(b.read)
		if res.firstErr == nil {
			res.firstErr = b.firstErr
		}
	}
	res.visible.merge(pb.visible)
	res.unseen += pb.unseen
	res.failed += pb.unseen
}

// finish runs the correctness gate over every connection's model.
func finish(c *cluster, models []map[string]expect, res *e2eResult) {
	res.gate = verify(c, models, quiesce)
	res.failed += res.gate.lost
}

// runE2E performs one untraced run of a workload. idle > 0 first measures
// the replicas' CPU at rest for that long.
func runE2E(env *runEnv, workload string, seed int64, seconds time.Duration, idle time.Duration) (*e2eResult, error) {
	var extra []string
	if workload == "rejoin" {
		extra = []string{"-anti-entropy-every", rejoinAEEvery.String(), "-rumor-every", rejoinRumorEvery.String()}
	}
	c, err := newCluster(env.gossipd, filepath.Join(env.dir, "e2e"), env.rp, 3, extra)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	res := newResult()
	if err := launchCluster(c, res); err != nil {
		return nil, err
	}
	r1, r2, r3 := c.reps[0], c.reps[1], c.reps[2]
	if idle > 0 {
		if err := measureIdle(c, res, idle); err != nil {
			return nil, err
		}
	}
	steal0, total0 := hostSteal()
	defer func() {
		steal1, total1 := hostSteal()
		res.stealPct = 100 * ratio(float64(steal1-steal0), float64(total1-total0))
	}()
	books := []*book{newBook(), newBook()}
	switch workload {
	case "browse":
		err = preloadAll(c, []*replica{r2, r3}, books, browseKeys, res)
	case "rejoin":
		err = preloadAll(c, []*replica{r1, r2}, books, rejoinKeys, res)
	}
	if err != nil {
		return nil, err
	}
	models := []map[string]expect{books[0].model, books[1].model}
	switch workload {
	case "ingest":
		bin := newBin(seconds)
		mixes := []*mix{
			newMix(seed, 0, ingestKeys, zipfS, 91, 5, bin.end()),
			newMix(seed, 1, ingestKeys, zipfS, 91, 5, bin.end()),
		}
		for _, m := range mixes {
			m.pace = time.Second / (ingestRate / 2)
		}
		pb := newProber(r3, r1, bin)
		err = closedLoad(c, []*replica{r1, r2}, books, mixes, pb, bin, res)
		models = append(models, pb.model())
	case "browse":
		bin := newBin(seconds)
		mixes := []*mix{
			newMix(seed, 0, browseKeys, zipfS, 5, 0, bin.end()),
			newMix(seed, 1, browseKeys, zipfS, 5, 0, bin.end()),
		}
		pb := newProber(r1, r2, bin)
		err = closedLoad(c, []*replica{r2, r3}, books, mixes, pb, bin, res)
		models = append(models, pb.model())
	case "steady":
		var pb *prober
		pb, err = steadyLoad(c, seed, seconds, books[0], res)
		if pb != nil {
			models = append(models, pb.model())
		}
	case "rejoin":
		err = rejoinLoad(c, seed, seconds, books, res)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	finish(c, models, res)
	return res, nil
}

// openLoop sends one request every 1/rate seconds from t0 for dur over lc,
// flushing each, with latency timed from the request's due time, and
// returns how late each send was. pause, when not nil, runs before
// request i (the self-test injects generator stalls through it).
func openLoop(lc *lineConn, t0 time.Time, dur time.Duration, rate int, gen func() op, pause func(int), done func(op, string, error)) samples {
	interval := time.Second / time.Duration(rate)
	var late samples
	i := 0
	pipeline(lc, 4096, true, func() (op, bool) {
		due := t0.Add(time.Duration(i) * interval)
		if due.Sub(t0) >= dur {
			return op{}, false
		}
		if pause != nil {
			pause(i)
		}
		i++
		time.Sleep(time.Until(due))
		late.add(time.Since(due))
		o := gen()
		o.start = due
		return o, true
	}, done)
	return late
}

// latenessVerdict returns why an open-loop run is invalid, or "".
func latenessVerdict(late samples) string {
	if p99 := late.quantileMs(0.99); p99 > float64(latenessBound)/1e6 {
		return fmt.Sprintf("open-loop generator ran late: p99 lateness %.3f ms exceeds the %v bound", p99, latenessBound)
	}
	return ""
}

// steadyLoad is the open loop: one connection to replica 1 sends a SET or
// GET every 1/steadyRate seconds over uniform keys in a large key space
// (so the outbox coalesces ~nothing). The prober writes at replica 1 and
// polls replica 2.
func steadyLoad(c *cluster, seed int64, seconds time.Duration, b *book, res *e2eResult) (*prober, error) {
	r1, r2 := c.reps[0], c.reps[1]
	lc, err := dialLine(r1.client)
	if err != nil {
		return nil, err
	}
	defer lc.close()
	bin := newBin(seconds)
	b.measure(bin)
	pb := newProber(r1, r2, bin)
	m := newMix(seed, 0, steadyKeys, 0, 50, 0, bin.end())
	err = measure(c, bin, res, func() error {
		var prErr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(bin.t0))
			prErr = pb.run(bin.end(), 5*time.Second)
		}()
		res.lateness = openLoop(lc, bin.t0, bin.end().Sub(bin.t0), steadyRate, m.op, nil, b.done)
		wg.Wait()
		res.absorb(b)
		res.absorbProber(pb)
		return prErr
	})
	res.invalid = latenessVerdict(res.lateness)
	return pb, err
}

// rejoinLoad runs kill/restart cycles until seconds have passed (at least
// one): SNAPSHOT replica 3, kill -9 it, write δ updates over all store
// shards at replicas 1 and 2, keep replica 3 down past the recent-update
// window τ and until no survivor still holds a missed update as a hot
// rumor, restart it from -data, and poll it with GETs until it returns
// every missed write. Each cycle is one window: visibility runs from the
// restart to each missed key's first correct GET, and catchup_s is the
// cycle's last one.
func rejoinLoad(c *cluster, seed int64, seconds time.Duration, books []*book, res *e2eResult) error {
	r1, r2, r3 := c.reps[0], c.reps[1], c.reps[2]
	rng := rand.New(rand.NewSource(seed))
	tau := 20 * rejoinAEEvery
	delta := int(float64(2*rejoinKeys) * rejoinDeltaPct / 100)
	start := time.Now()
	deadline := start.Add(seconds)
	seq := 0
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		ci := res.write.grow()
		res.read.grow()
		res.visible.grow()
		lc, err := dialLine(r3.client)
		if err != nil {
			return err
		}
		reply, err := lc.roundTrip("SNAPSHOT")
		lc.close()
		if err != nil || reply != "OK" {
			return fmt.Errorf("SNAPSHOT at replica 3: %q %v", reply, err)
		}
		r3.kill()
		c.rp.remove(r3)

		// The missed writes: δ/2 distinct keys per survivor connection,
		// uniform over its preloaded range so they land in every shard.
		want := make(map[string]expect)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i, p := range []*replica{r1, r2} {
			var ops []op
			for _, idx := range rng.Perm(rejoinKeys)[:delta/2] {
				seq++
				o := op{kind: opSet, key: keyName(i, idx), val: valueFor(i, 1_000_000+seq)}
				want[o.key] = expect{val: o.val}
				ops = append(ops, o)
			}
			lc, err := dialLine(p.client)
			if err != nil {
				return err
			}
			wg.Add(1)
			go func(lc *lineConn, b *book, ops []op) {
				defer wg.Done()
				defer lc.close()
				j := 0
				pipeline(lc, depth, false, func() (op, bool) {
					if j >= len(ops) {
						return op{}, false
					}
					j++
					return ops[j-1], true
				}, func(o op, reply string, err error) {
					b.done(o, reply, err)
					if err == nil && reply == "OK" {
						mu.Lock()
						res.write.add(ci, time.Since(o.start), len(reply)+1)
						mu.Unlock()
					}
				})
			}(lc, books[i], ops)
		}
		wg.Wait()
		for _, b := range books {
			if b.failures() > 0 {
				return fmt.Errorf("missed writes: %w", b.firstErr)
			}
		}
		if err := waitCold(time.Now().Add(tau), []*replica{r1, r2}, want, 60*time.Second); err != nil {
			return err
		}

		// Restart and catch up.
		before, err := c.sample()
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := r3.start(c.bin, c.rp); err != nil {
			return err
		}
		vc, err := dialReady(r3, t0.Add(30*time.Second))
		if err != nil {
			return err
		}
		rb := newBook()
		pending := make([]string, 0, len(want))
		for k := range want {
			pending = append(pending, k)
		}
		for len(pending) > 0 {
			if time.Since(t0) > 60*time.Second {
				vc.close()
				return fmt.Errorf("replica 3 still misses %d of %d writes after 60s", len(pending), len(want))
			}
			var still []string
			j := 0
			pipeline(vc, depth, false, func() (op, bool) {
				if j >= len(pending) {
					return op{}, false
				}
				j++
				return op{kind: opGet, key: pending[j-1]}, true
			}, func(o op, reply string, err error) {
				rb.done(o, reply, err)
				if err != nil {
					return
				}
				now := time.Now()
				res.read.add(ci, now.Sub(o.start), len(reply)+1)
				if matches(want[o.key], reply) {
					res.visible.add(ci, now.Sub(t0), 0)
				} else {
					still = append(still, o.key)
				}
			})
			if rb.ioErrors > 0 {
				vc.close()
				return fmt.Errorf("catch-up polls: %w", rb.firstErr)
			}
			pending = still
		}
		catch := time.Since(t0)
		vc.close()
		after, err := c.sample()
		if err != nil {
			return err
		}
		// before lacks replica 3, so the delta holds its whole new life.
		d := after.sub(before)
		n := float64(len(want))
		res.catchup = append(res.catchup, catch.Seconds())
		res.opsW = append(res.opsW, n/catch.Seconds())
		res.cpuW = append(res.cpuW, float64(d.cpu.Nanoseconds())/1e3/n)
		res.txW = append(res.txW, float64(d.wchar-vc.readBytes)/n)
		res.missed += len(want)
		res.attempted += rb.acked + rb.errReplies + rb.ioErrors
		res.failed += rb.errReplies + rb.ioErrors
	}
	res.measured = time.Since(start)
	res.attempted += res.write.total()
	for _, b := range books {
		res.failed += b.failures()
		if res.firstErr == nil {
			res.firstErr = b.firstErr
		}
	}
	return nil
}

// waitCold waits until notBefore has passed and no survivor lists a missed
// key among its hot rumors, so the restarted replica can only catch up by
// anti-entropy's checksum-mismatch repair.
func waitCold(notBefore time.Time, survivors []*replica, missed map[string]expect, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	time.Sleep(time.Until(notBefore))
	for _, p := range survivors {
		lc, err := dialLine(p.client)
		if err != nil {
			return err
		}
		for {
			line, err := lc.roundTrip("HOT")
			if err != nil {
				lc.close()
				return err
			}
			hot := false
			for _, k := range strings.Fields(line)[1:] {
				if _, ok := missed[k]; ok {
					hot = true
					break
				}
			}
			if !hot {
				break
			}
			if time.Now().After(deadline) {
				lc.close()
				return fmt.Errorf("replica %d still spreads missed writes as rumors after %v", p.site, timeout)
			}
			time.Sleep(20 * time.Millisecond)
		}
		lc.close()
	}
	return nil
}
