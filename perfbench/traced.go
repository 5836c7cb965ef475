package main

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"epidemic"
)

// The traced run hosts three replicas in this process, built through the
// epidemic facade the way cmd/gossipd's startDaemon builds them (same
// NodeConfig, peer and server options, InstrumentNode/InstrumentWire and
// history sampler), and drives the same workload by calling the node's
// public functions directly. Every call the benchmark makes into a layer
// is timed here, so the program itself carries no tracing. What this
// cannot see: the line-protocol parse (the gossipd.*_overhead_us
// differences estimate it) and work inside a remote replica's request
// handler, which shows only as the server observer's per-request time.

// spanRec is one timed call: name, start, end, the causing span, and the
// client op it serves (0 for background gossip).
type spanRec struct {
	name       string
	site       int
	id, parent uint64
	op         uint64
	start, end int64 // ns since the traced phase began
}

// maxSpans bounds the in-memory span log; later spans still feed the
// per-layer statistics but are not written out.
const maxSpans = 400_000

// maxTracked bounds the updates whose propagation is tracked at once.
const maxTracked = 200_000

// activeKey names a call in flight from a wrapper to a remote site, so
// the remote server's per-request observations can name it as parent.
type activeKey struct {
	to    int
	class string
}

type stampKey struct {
	key   string
	stamp epidemic.Timestamp
}

// recorder holds the traced phase's spans, samples and counters.
type recorder struct {
	t0     time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []spanRec
	dropped int
	hist    map[string]*samples
	count   map[string]float64
	active  map[activeKey]uint64
	// born maps an update to its origination time at the origin (its
	// EventUpdate, emitted inside Update before the mail is enqueued);
	// applies counts the receivers that applied it so far.
	born    map[stampKey]time.Time
	applies map[stampKey]int
	tavgSum float64
	tavgN   int
	tlast   samples
	// appliedAt counts apply events per site (sanity checks).
	appliedAt map[int]int
}

func newRecorder() *recorder {
	r := &recorder{active: make(map[activeKey]uint64)}
	r.reset()
	return r
}

// reset starts the measured part of the traced pass: everything recorded
// during preload is discarded.
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.t0 = time.Now()
	r.spans, r.dropped = nil, 0
	r.hist = make(map[string]*samples)
	r.count = make(map[string]float64)
	r.born = make(map[stampKey]time.Time)
	r.applies = make(map[stampKey]int)
	r.tavgSum, r.tavgN, r.tlast = 0, 0, nil
	r.appliedAt = make(map[int]int)
}

// span records one call that ran from start to end and returns its id.
func (r *recorder) span(name string, site int, parent, opID uint64, start, end time.Time) uint64 {
	id := r.nextID.Add(1)
	r.mu.Lock()
	r.spanLocked(spanRec{name: name, site: site, id: id, parent: parent, op: opID}, start, end)
	r.mu.Unlock()
	return id
}

func (r *recorder) spanLocked(s spanRec, start, end time.Time) {
	r.observeLocked(s.name, end.Sub(start))
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	s.start, s.end = start.Sub(r.t0).Nanoseconds(), end.Sub(r.t0).Nanoseconds()
	r.spans = append(r.spans, s)
}

func (r *recorder) observeLocked(name string, d time.Duration) {
	h := r.hist[name]
	if h == nil {
		h = new(samples)
		r.hist[name] = h
	}
	h.add(d)
}

func (r *recorder) observe(name string, d time.Duration) {
	r.mu.Lock()
	r.observeLocked(name, d)
	r.mu.Unlock()
}

func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.count[name] += v
	r.mu.Unlock()
}

// enter marks a wrapper call to site `to` as in flight and returns its
// span id; leave clears it.
func (r *recorder) enter(to int, class string) uint64 {
	id := r.nextID.Add(1)
	r.mu.Lock()
	r.active[activeKey{to, class}] = id
	r.mu.Unlock()
	return id
}

func (r *recorder) leave(to int, class string, id uint64, name string, site int, start, end time.Time) {
	r.mu.Lock()
	if r.active[activeKey{to, class}] == id {
		delete(r.active, activeKey{to, class})
	}
	r.spanLocked(spanRec{name: name, site: site, id: id}, start, end)
	r.mu.Unlock()
}

// serveClass maps a gossip request kind to the wrapper call that causes it.
func serveClass(kind string) string {
	switch strings.TrimPrefix(kind, "udp-") {
	case "mail", "mail-batch":
		return "mail"
	case "push-rumors":
		return "push"
	case "pull-rumors":
		return "pull"
	case "checksum":
		return "checksum"
	default:
		return "ae"
	}
}

// serve records one request served at site, parented to the in-flight
// wrapper call that most likely caused it.
func (r *recorder) serve(site int, kind string, d time.Duration) {
	end := time.Now()
	r.mu.Lock()
	parent := r.active[activeKey{site, serveClass(kind)}]
	r.mu.Unlock()
	r.span("transport.serve."+kind, site, parent, 0, end.Add(-d), end)
}

// onEvent tracks propagation: origination at the origin, application at
// each receiver.
func (r *recorder) onEvent(site int, e epidemic.NodeEvent) {
	switch e.Kind {
	case epidemic.NodeEventUpdate:
		r.mu.Lock()
		// Updates superseded before delivery are never applied and stay
		// here; the cap bounds memory on saturating workloads.
		if len(r.born) < maxTracked {
			r.born[stampKey{e.Key, e.Stamp}] = time.Now()
		}
		r.mu.Unlock()
	case epidemic.NodeEventApply:
		now := time.Now()
		k := stampKey{e.Key, e.Stamp}
		r.mu.Lock()
		r.appliedAt[site]++
		if b, ok := r.born[k]; ok {
			d := now.Sub(b)
			r.tavgSum += d.Seconds() * 1e3
			r.tavgN++
			r.applies[k]++
			if r.applies[k] == 2 { // both receivers of a 3-replica cluster
				r.tlast.add(d)
				delete(r.born, k)
				delete(r.applies, k)
			}
		}
		r.mu.Unlock()
	}
}

// timedPeer wraps a TCP peer and times every call the node makes into the
// transport (and, for AntiEntropy, the resolve protocol behind it).
type timedPeer struct {
	inner    *epidemic.TCPPeer
	from, to int
	rec      *recorder
}

func (p *timedPeer) ID() epidemic.SiteID { return p.inner.ID() }
func (p *timedPeer) Addr() string        { return p.inner.Addr() }
func (p *timedPeer) Close() error        { return p.inner.Close() }

func (p *timedPeer) AntiEntropy(cfg epidemic.ResolveConfig, local *epidemic.Store, tr *epidemic.Tracer) (epidemic.ExchangeStats, error) {
	id := p.rec.enter(p.to, "ae")
	start := time.Now()
	st, err := p.inner.AntiEntropy(cfg, local, tr)
	p.rec.leave(p.to, "ae", id, "core.ae", p.from, start, time.Now())
	p.rec.add("core.ae_calls", 1)
	if err != nil {
		p.rec.add("core.ae_errors", 1)
		return st, err
	}
	p.rec.add("core.ae_sent", float64(st.EntriesSent))
	p.rec.add("core.ae_received", float64(st.EntriesReceived))
	p.rec.add("core.ae_applied", float64(st.EntriesApplied))
	p.rec.add("core.ae_shards_repaired", float64(st.ShardsRepaired))
	if st.FullCompare {
		p.rec.add("core.ae_full_compares", 1)
	}
	return st, nil
}

func (p *timedPeer) PushRumors(entries []epidemic.Entry, hops []epidemic.TraceHop) ([]bool, error) {
	id := p.rec.enter(p.to, "push")
	start := time.Now()
	needed, err := p.inner.PushRumors(entries, hops)
	p.rec.leave(p.to, "push", id, "transport.push_rumors", p.from, start, time.Now())
	p.rec.add("transport.push_rumors_calls", 1)
	p.rec.add("transport.push_entries", float64(len(entries)))
	return needed, err
}

func (p *timedPeer) PullRumors() ([]epidemic.Entry, []epidemic.TraceHop, error) {
	id := p.rec.enter(p.to, "pull")
	start := time.Now()
	e, h, err := p.inner.PullRumors()
	p.rec.leave(p.to, "pull", id, "transport.pull_rumors", p.from, start, time.Now())
	p.rec.add("transport.pull_rumors_calls", 1)
	return e, h, err
}

func (p *timedPeer) Checksum(tau1 int64) (uint64, error) {
	id := p.rec.enter(p.to, "checksum")
	start := time.Now()
	c, err := p.inner.Checksum(tau1)
	p.rec.leave(p.to, "checksum", id, "transport.checksum", p.from, start, time.Now())
	p.rec.add("transport.checksum_calls", 1)
	return c, err
}

func (p *timedPeer) Mail(e epidemic.Entry, hop epidemic.TraceHop) error {
	id := p.rec.enter(p.to, "mail")
	start := time.Now()
	err := p.inner.Mail(e, hop)
	p.rec.leave(p.to, "mail", id, "transport.mail", p.from, start, time.Now())
	p.rec.add("outbox.sent_entries", 1)
	return err
}

func (p *timedPeer) MailBatch(b epidemic.MailBatch) error {
	id := p.rec.enter(p.to, "mail")
	start := time.Now()
	err := p.inner.MailBatch(b)
	p.rec.leave(p.to, "mail", id, "transport.mail_batch", p.from, start, time.Now())
	p.rec.observe("outbox.queue_wait", time.Duration(b.QueuedNanos))
	p.rec.add("outbox.batches", 1)
	p.rec.add("outbox.sent_entries", float64(len(b.Entries)))
	if err != nil {
		p.rec.add("transport.mail_batch_errors", 1)
	}
	return err
}

var _ epidemic.BatchMailer = (*timedPeer)(nil)

// tnode is one in-process replica.
type tnode struct {
	site     int
	addr     string
	cfg      epidemic.NodeConfig
	node     *epidemic.Node
	srv      *epidemic.TCPServer
	reg      *epidemic.MetricsRegistry
	wire     *epidemic.WireStats
	history  *epidemic.HistorySampler
	stopSync chan struct{}
	syncDone chan struct{}
}

// tcluster is the in-process cluster plus the totals of replicas that
// were stopped (rejoin restarts one).
type tcluster struct {
	rec        *recorder
	logger     *slog.Logger
	addrs      []string
	aeEvery    time.Duration
	rumorEvery time.Duration
	dir        string
	nodes      []*tnode
	retired    struct {
		stats epidemic.NodeStats
		wire  epidemic.WireSnapshot
	}
}

// The gossipd flag defaults the in-process replicas copy. checkDefaults
// compares each with what `gossipd -h` prints, so a changed default fails
// the traced run instead of silently comparing two configurations.
const (
	defK                = 3                // -k
	defTau1             = time.Hour        // -tau1
	defTau2             = 24 * time.Hour   // -tau2
	defRetention        = 2                // -retention
	defAEEvery          = 5 * time.Second  // -anti-entropy-every
	defRumorEvery       = time.Second      // -rumor-every
	defPoolSize         = 2                // -pool-size
	defExchangeTimeout  = 10 * time.Second // -exchange-timeout
	defCodec            = "binary"         // -codec
	defHistoryStep      = time.Second      // -history-step
	defHistoryRetention = 15 * time.Minute // -history-retention
)

// mirroredFlags maps each gossipd flag the traced replicas depend on to the
// default they assume. Flags whose zero value selects the library default
// (the options are left unset here) must still default to zero.
var mirroredFlags = map[string]string{
	"k":                    strconv.Itoa(defK),
	"tau1":                 defTau1.String(),
	"tau2":                 defTau2.String(),
	"retention":            strconv.Itoa(defRetention),
	"anti-entropy-every":   defAEEvery.String(),
	"rumor-every":          defRumorEvery.String(),
	"pool-size":            strconv.Itoa(defPoolSize),
	"exchange-timeout":     defExchangeTimeout.String(),
	"codec":                defCodec,
	"history-step":         defHistoryStep.String(),
	"history-retention":    defHistoryRetention.String(),
	"direct-mail":          "true",
	"udp":                  "true",
	"shard-vector":         "true",
	"cluster-digests":      "true",
	"peel-batch":           "0",
	"store-shards":         "0",
	"shard-repair-workers": "0",
	"outbox-workers":       "0",
	"outbox-queue":         "0",
	"trace-ring":           "0",
}

// checkDefaults runs `gossipd -h` and fails when a default it prints
// differs from the one the traced replicas copy. The flag package prints
// "(default X)" only for non-zero defaults.
func checkDefaults(gossipd string) error {
	out, _ := exec.Command(gossipd, "-h").CombinedOutput() // the usage text is all that matters
	got := map[string]string{}
	name := ""
	for _, line := range strings.Split(string(out), "\n") {
		if f, ok := strings.CutPrefix(line, "  -"); ok {
			name = strings.Fields(f)[0]
			got[name] = ""
		}
		if i := strings.LastIndex(line, "(default "); i >= 0 && name != "" {
			got[name] = strings.Trim(strings.TrimSuffix(line[i+len("(default "):], ")"), `"`)
		}
	}
	if len(got) == 0 {
		return fmt.Errorf("gossipd -h printed no flags: %q", out)
	}
	var diffs []string
	for flagName, want := range mirroredFlags {
		v, ok := got[flagName]
		if !ok {
			diffs = append(diffs, "-"+flagName+" is gone")
			continue
		}
		if v == "" {
			v = "0"
			if want == "true" || want == "false" {
				v = "false"
			}
		}
		if v != want {
			diffs = append(diffs, fmt.Sprintf("-%s defaults to %s, traced replicas assume %s", flagName, v, want))
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("gossipd defaults drifted from the traced replicas' copy: %s", strings.Join(diffs, "; "))
	}
	return nil
}

// nodeConfig is startDaemon's NodeConfig at gossipd's default flags.
func (tc *tcluster) nodeConfig(site int, digests *epidemic.ClusterDirectory) epidemic.NodeConfig {
	return epidemic.NodeConfig{
		Site:   epidemic.SiteID(site),
		Logger: tc.logger.With("site", site),
		Rumor:  epidemic.RumorConfig{K: defK, Counter: true, Feedback: true, Mode: epidemic.PushPull},
		Resolve: epidemic.ResolveConfig{
			Mode:              epidemic.PushPull,
			Strategy:          epidemic.CompareRecent,
			Tau:               int64(20 * tc.aeEvery),
			Tau1:              defTau1.Nanoseconds(),
			ReactivateDormant: true,
		},
		DirectMailOnUpdate: true,
		Redistribution:     epidemic.RedistributeRumor,
		Tau1:               defTau1.Nanoseconds(),
		Tau2:               defTau2.Nanoseconds(),
		RetentionCount:     defRetention,
		AntiEntropyEvery:   tc.aeEvery,
		RumorEvery:         tc.rumorEvery,
		SnapshotPath:       filepath.Join(tc.dir, fmt.Sprintf("site%d.snap", site)),
		SnapshotEvery:      time.Minute,
		Digests:            digests,
	}
}

// start builds and starts replica i the way startDaemon does. With a
// snapshot on disk, NewNode's load time is recorded as store.snapshot_load.
func (tc *tcluster) start(i int) error {
	site := i + 1
	digests := epidemic.NewClusterDirectory(epidemic.SiteID(site), 0)
	cfg := tc.nodeConfig(site, digests)
	_, statErr := os.Stat(cfg.SnapshotPath)
	t0 := time.Now()
	n, err := epidemic.NewNode(cfg)
	if err != nil {
		return err
	}
	if statErr == nil {
		tc.rec.span("store.snapshot_load", site, 0, 0, t0, time.Now())
	}
	wire := &epidemic.WireStats{}
	popts := epidemic.TCPPeerOptions{Timeout: defExchangeTimeout, PoolSize: defPoolSize, Stats: wire, Codec: defCodec, UDP: true, Digests: digests}
	dial := func(sid int, addr string) epidemic.Peer {
		return &timedPeer{inner: epidemic.NewTCPPeerWith(epidemic.SiteID(sid), addr, popts), from: site, to: sid, rec: tc.rec}
	}
	var peers []epidemic.Peer
	for j, a := range tc.addrs {
		if j != i {
			peers = append(peers, dial(j+1, a))
		}
	}
	n.SetPeers(peers)
	srv, err := epidemic.ServeTCPWith(n, tc.addrs[i], epidemic.TCPServerOptions{Codec: defCodec})
	if err != nil {
		return err
	}
	if _, err := epidemic.Announce(n, srv.Addr()); err != nil {
		_ = srv.Close()
		return err
	}
	t := &tnode{site: site, addr: tc.addrs[i], cfg: cfg, node: n, srv: srv,
		reg: epidemic.NewMetricsRegistry(), wire: wire,
		stopSync: make(chan struct{}), syncDone: make(chan struct{})}
	prop := epidemic.NewPropagationTracker(1e-9, t.reg.Histogram(epidemic.MetricUpdatePropagation,
		"Delay from an update's origination to its application at a replica, in seconds.", nil))
	observe := epidemic.InstrumentNode(t.reg, n, epidemic.ObserveOptions{
		Ring: epidemic.NewEventRing(0), Propagation: prop, SecondsPerUnit: 1e-9, WallTime: true,
	})
	n.SetOnEvent(func(e epidemic.NodeEvent) {
		observe(e)
		tc.rec.onEvent(site, e)
	})
	srv.SetLogger(tc.logger.With("site", site, "component", "transport"))
	srv.SetObserver(func(kind string, dur time.Duration) {
		label := epidemic.MetricLabel{Name: "kind", Value: kind}
		t.reg.Counter(epidemic.MetricTransportRequests, "Gossip requests served, by request kind.", label).Inc()
		t.reg.Histogram(epidemic.MetricTransportSeconds, "Gossip request handling duration in seconds.", nil, label).Observe(dur.Seconds())
		tc.rec.serve(site, kind, dur)
	})
	epidemic.InstrumentWire(t.reg, wire)
	t.history = epidemic.NewHistorySampler(t.reg, epidemic.HistoryConfig{Step: defHistoryStep, Retention: defHistoryRetention})
	go func() {
		defer close(t.syncDone)
		tick := time.NewTicker(tc.aeEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				epidemic.SyncPeers(n, func(rec epidemic.MemberRecord) epidemic.Peer { return dial(int(rec.Site), rec.Addr) })
			case <-t.stopSync:
				return
			}
		}
	}()
	n.Start()
	if len(tc.nodes) <= i {
		tc.nodes = append(tc.nodes, make([]*tnode, i+1-len(tc.nodes))...)
	}
	tc.nodes[i] = t
	return nil
}

// stop shuts replica i down (the in-process stand-in for kill -9: the
// node's final snapshot is overwritten by the one taken before the stop)
// and folds its counters into the retired totals.
func (tc *tcluster) stop(i int) {
	t := tc.nodes[i]
	if t == nil {
		return
	}
	close(t.stopSync)
	<-t.syncDone
	t.node.Stop()
	_ = t.srv.Close()
	for _, p := range t.node.Peers() {
		if c, ok := p.(io.Closer); ok {
			_ = c.Close()
		}
	}
	tc.retired.stats = addStats(tc.retired.stats, t.node.Stats())
	tc.retired.wire = addWire(tc.retired.wire, t.wire.Snapshot())
	tc.nodes[i] = nil
}

func (tc *tcluster) close() {
	for i := range tc.nodes {
		tc.stop(i)
	}
}

// totals sums node stats and wire stats over live and retired replicas.
func (tc *tcluster) totals() (epidemic.NodeStats, epidemic.WireSnapshot) {
	st, w := tc.retired.stats, tc.retired.wire
	for _, t := range tc.nodes {
		if t != nil {
			st = addStats(st, t.node.Stats())
			w = addWire(w, t.wire.Snapshot())
		}
	}
	return st, w
}

func addStats(a, b epidemic.NodeStats) epidemic.NodeStats {
	a.UpdatesAccepted += b.UpdatesAccepted
	a.RumorRuns += b.RumorRuns
	a.AntiEntropyRuns += b.AntiEntropyRuns
	a.EntriesApplied += b.EntriesApplied
	a.OutboxEnqueued += b.OutboxEnqueued
	a.OutboxCoalesced += b.OutboxCoalesced
	a.OutboxDropped += b.OutboxDropped
	a.OutboxBatches += b.OutboxBatches
	a.OutboxDepth += b.OutboxDepth
	return a
}

func addWire(a, b epidemic.WireSnapshot) epidemic.WireSnapshot {
	a.BytesSent += b.BytesSent
	a.Redials += b.Redials
	a.UDPPushes += b.UDPPushes
	a.UDPFallbacks += b.UDPFallbacks
	a.ShardVecDowngrades += b.ShardVecDowngrades
	return a
}

// sampleHistory drives every replica's history sampler at the daemon's
// 1 s cadence, timing each Sample call, until stop closes.
func (tc *tcluster) sampleHistory(stop <-chan struct{}, mu *sync.Mutex) {
	tick := time.NewTicker(defHistoryStep)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			mu.Lock()
			for _, t := range tc.nodes {
				if t == nil {
					continue
				}
				s := time.Now()
				t.history.Sample(s.UnixNano())
				tc.rec.span("obs.history_sample", t.site, 0, 0, s, time.Now())
			}
			mu.Unlock()
		}
	}
}

// tclient is a client op stream calling the node directly.
type tclient struct {
	rec   *recorder
	ops   atomic.Int64
	nextO atomic.Uint64
}

// do runs one op against n, recording a client span and the node call as
// its child.
func (c *tclient) do(n *epidemic.Node, site int, o op, start time.Time) {
	opID := c.nextO.Add(1)
	ns := time.Now()
	var name string
	switch o.kind {
	case opSet:
		n.Update(o.key, epidemic.Value(o.val))
		name = "node.update"
	case opDel:
		n.Delete(o.key)
		name = "node.update"
	default:
		n.Lookup(o.key)
		name = "node.lookup"
	}
	ne := time.Now()
	client := "client.write"
	if o.kind == opGet {
		client = "client.read"
	}
	pid := c.rec.span(client, site, 0, opID, start, time.Now())
	c.rec.span(name, site, pid, opID, ns, ne)
	c.ops.Add(1)
}

// layerSpec lists the per-layer metrics printed with -trace 1: unit, what
// the benchmark timed or counted, and which end-to-end metric it should
// move on which workload.
var layerSpec = []metricSpec{
	{"gossipd.write_overhead_us", "us", "untraced write_p50 minus traced node.update_us_p50: line-protocol parse and reply, process boundary, and tracing overhead; moves ops_s, write_p50_ms on ingest"},
	{"gossipd.read_overhead_us", "us", "untraced read_p50 minus traced node.lookup_us_p50 (same caveats); moves ops_s, read_p50_ms on browse"},
	{"gossipd.idle_cpu_ms_per_s", "ms/s", "replica CPU per wall second before any load (untraced pass); moves cpu_us_per_op on steady"},
	{"node.update_us_p50", "us", "Node.Update/Delete call time; moves write_p50_ms, ops_s on ingest"},
	{"node.update_us_p99", "us", "Node.Update/Delete call time, 99th percentile"},
	{"node.lookup_us_p50", "us", "Node.Lookup call time; moves read_p50_ms, ops_s on browse"},
	{"node.lookup_us_p99", "us", "Node.Lookup call time, 99th percentile"},
	{"node.t_avg_ms", "ms", "mean delay from origination at the origin to each receiver's apply event; moves visible_p50_ms on steady"},
	{"node.t_last_ms_p50", "ms", "delay to the last receiver's apply event, median over updates; moves visible_p50_ms on steady"},
	{"node.t_last_ms_p99", "ms", "delay to the last receiver's apply, 99th percentile; moves visible_p99_ms on steady"},
	{"node.rumor_rounds", "count", "rumor rounds run by all replicas; moves tx_bytes_per_op on ingest"},
	{"node.push_entries_per_update", "entries", "entries in PushRumors calls per client write; moves tx_bytes_per_op on ingest, visible_p99_ms on steady"},
	{"outbox.enqueued", "count", "outbox enqueues (Node.Stats delta); heavy on ingest, light on browse, ~0 on rejoin catch-up"},
	{"outbox.coalesced_ratio", "ratio", "coalesced enqueues / enqueued; moves cpu_us_per_op, tx_bytes_per_op on ingest"},
	{"outbox.dropped_ratio", "ratio", "dropped enqueues / enqueued; moves visible_p99_ms on steady, tx_bytes_per_op on ingest"},
	{"outbox.entries_per_batch", "entries", "entries per MailBatch call; moves cpu_us_per_op, tx_bytes_per_op on ingest"},
	{"outbox.queue_wait_ms_p50", "ms", "MailBatch.QueuedNanos seen by the peer wrapper; moves visible_p50_ms on steady"},
	{"outbox.queue_wait_ms_p99", "ms", "queue wait, 99th percentile; moves visible_p99_ms on steady"},
	{"transport.mail_batch_us_p50", "us", "TCPPeer.MailBatch call time; moves visible_p50_ms on steady"},
	{"transport.mail_batch_us_p99", "us", "TCPPeer.MailBatch call time, 99th percentile"},
	{"transport.mail_batch_errors", "count", "failed MailBatch calls"},
	{"transport.push_rumors_us_p50", "us", "TCPPeer.PushRumors call time; moves ops_s on ingest"},
	{"transport.push_rumors_calls", "count", "PushRumors calls"},
	{"transport.pull_rumors_calls", "count", "PullRumors calls"},
	{"transport.checksum_calls", "count", "Checksum calls"},
	{"transport.serve_us_p50.mail-batch", "us", "server time per mail-batch request (TCPServer.SetObserver), remote apply included; moves visible_p50_ms on steady"},
	{"transport.serve_us_p99.mail-batch", "us", "server time per mail-batch request, 99th percentile"},
	{"transport.serve_us_p50.sync", "us", "server time per anti-entropy round-0 sync request; moves catchup (visible_*) on rejoin"},
	{"transport.serve_us_p99.sync", "us", "server time per sync request, 99th percentile"},
	{"transport.serve_us_p50.shard-vector", "us", "server time per shard-vector request; moves visible_p99_ms on rejoin"},
	{"transport.serve_us_p99.shard-vector", "us", "server time per shard-vector request, 99th percentile"},
	{"transport.serve_us_p50.peel-back-shard", "us", "server time per shard peel-back request; moves visible_p99_ms on rejoin"},
	{"transport.serve_us_p99.peel-back-shard", "us", "server time per shard peel-back request, 99th percentile"},
	{"transport.serve_us_p50.pull-rumors", "us", "server time per pull-rumors request; moves cpu_us_per_op on ingest"},
	{"transport.serve_us_p99.pull-rumors", "us", "server time per pull-rumors request, 99th percentile"},
	{"transport.serve_us_p50.push-rumors", "us", "server time per TCP push-rumors request (batches too big for UDP); moves cpu_us_per_op on ingest"},
	{"transport.serve_us_p99.push-rumors", "us", "server time per TCP push-rumors request, 99th percentile"},
	{"transport.serve_us_p50.udp-push-rumors", "us", "server time per UDP push-rumors datagram; moves cpu_us_per_op on steady"},
	{"transport.serve_us_p99.udp-push-rumors", "us", "server time per UDP push-rumors datagram, 99th percentile"},
	{"transport.bytes_per_op", "B", "WireStats bytes sent per client op; moves tx_bytes_per_op on ingest"},
	{"transport.redials", "count", "pooled-connection redials; moves tx_bytes_per_op, visible_p99_ms on rejoin"},
	{"transport.udp_fallback_ratio", "ratio", "UDP pushes that fell back to TCP / UDP pushes; moves cpu_us_per_op on ingest"},
	{"transport.shardvec_downgrades", "count", "shard-vector exchanges downgraded to the global walk; moves visible_p99_ms on rejoin"},
	{"core.ae_ms_p50", "ms", "AntiEntropy call time (resolve protocol over the wire); moves visible_* on rejoin, ~idle elsewhere"},
	{"core.ae_ms_p99", "ms", "AntiEntropy call time, 99th percentile"},
	{"core.ae_calls", "count", "AntiEntropy calls"},
	{"core.ae_errors", "count", "failed AntiEntropy calls (a stopped replica's peers see these on rejoin)"},
	{"core.ae_entries_per_missed", "entries", "AE entries sent+received per missed write (rejoin; 0 where nothing was missed); moves tx_bytes_per_op on rejoin"},
	{"core.ae_useful_ratio", "ratio", "AE entries applied / entries transferred; moves tx_bytes_per_op on rejoin"},
	{"core.ae_full_compares", "count", "AE conversations that fell back to a full compare"},
	{"core.ae_shards_repaired", "count", "diverged shards repaired by the shard vector; moves visible_p99_ms on rejoin"},
	{"store.snapshot_load_ms", "ms", "NewNode with SnapshotPath on restart (median); moves visible_p50_ms on rejoin, setup_s"},
	{"store.snapshot_save_ms", "ms", "SaveSnapshot (median); moves setup_s on rejoin"},
	{"store.keys", "count", "entries in replica 3's store at the end"},
	{"obs.history_sample_us", "us", "HistorySampler.Sample at the daemon's 1 s cadence (median); moves cpu_us_per_op via idle CPU on steady"},
	{"self.client_ms", "ms", "self time of the benchmark's client-op spans (bookkeeping around the node call)"},
	{"self.node_ms", "ms", "self time of Node.Update/Delete/Lookup spans"},
	{"self.transport_ms", "ms", "self time of peer-wrapper mail/push/pull/checksum spans, less the remote serve spans they caused"},
	{"self.serve_ms", "ms", "self time of server-side request spans (remote decode and apply)"},
	{"self.core_ms", "ms", "self time of AntiEntropy spans, less the remote serve spans they caused"},
	{"self.store_ms", "ms", "self time of snapshot save/load spans"},
	{"self.obs_ms", "ms", "self time of history-sampler spans"},
	{"trace.span_cost_ns", "ns", "cost of recording one span, measured in-process; times spans per op gives the tracing overhead"},
	{"trace.spans", "count", "spans recorded in the traced pass"},
	{"trace.ops", "count", "client ops in the traced pass"},
	{"sanity.outbox_depth_min", "count", "smallest Node.Stats().OutboxDepth at quiescence (must be >= 0)"},
	{"sanity.outbox_unaccounted", "count", "enqueued - dropped - entries sent - change in depth, summed over replicas (must be 0; coalesced enqueues are not counted as enqueued)"},
	{"sanity.rejoin_applied_gap", "count", "missed writes the rejoined replica gained minus its Node.Stats().EntriesApplied after catch-up (0 expected; rejoin only)"},
}

// runTraced runs the in-process traced pass of a workload for seconds and
// returns the per-layer metrics. The report goes to w.
func runTraced(env *runEnv, workload string, seed int64, seconds time.Duration, e2e *e2eResult, m map[string]float64, w io.Writer) (map[string]float64, error) {
	if seconds < time.Second {
		seconds = time.Second
	}
	if err := checkDefaults(env.gossipd); err != nil {
		return nil, err
	}
	dir := filepath.Join(env.dir, "traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "nodes.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	ports, err := reservePorts(3)
	if err != nil {
		return nil, err
	}
	tc := &tcluster{
		rec:        newRecorder(),
		logger:     slog.New(slog.NewTextHandler(logf, &slog.HandlerOptions{Level: slog.LevelInfo})),
		aeEvery:    defAEEvery,
		rumorEvery: defRumorEvery,
		dir:        dir,
	}
	if workload == "rejoin" {
		tc.aeEvery, tc.rumorEvery = rejoinAEEvery, rejoinRumorEvery
	}
	for _, p := range ports {
		tc.addrs = append(tc.addrs, fmt.Sprintf("127.0.0.1:%d", p))
	}
	for i := range tc.addrs {
		if err := tc.start(i); err != nil {
			tc.close()
			return nil, err
		}
	}
	defer tc.close()
	var sampleMu sync.Mutex
	stopSample := make(chan struct{})
	var sampleWG sync.WaitGroup
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		tc.sampleHistory(stopSample, &sampleMu)
	}()
	stopSampling := sync.OnceFunc(func() {
		close(stopSample)
		sampleWG.Wait()
	})
	defer stopSampling()

	cl := &tclient{rec: tc.rec}
	rng := rand.New(rand.NewSource(seed))
	var missed, appliedStat, applyEvents int
	var stats0 epidemic.NodeStats
	var wire0 epidemic.WireSnapshot
	begin := func() {
		stats0, wire0 = tc.totals()
		tc.rec.reset()
	}
	switch workload {
	case "ingest":
		begin()
		closedInProcess(tc, cl, seed, []int{0, 1}, ingestKeys, 91, 5, ingestRate, seconds)
	case "browse":
		preloadInProcess(tc, []int{1, 2}, browseKeys)
		begin()
		closedInProcess(tc, cl, seed, []int{1, 2}, browseKeys, 5, 0, 0, seconds)
	case "steady":
		begin()
		steadyInProcess(tc, cl, seed, seconds)
	case "rejoin":
		preloadInProcess(tc, []int{0, 1}, rejoinKeys)
		begin()
		missed, appliedStat, applyEvents, err = rejoinInProcess(tc, cl, rng, seconds, &sampleMu)
		if err != nil {
			return nil, err
		}
	}
	// Quiescence: let queued mail drain before the sanity checks.
	for _, t := range tc.nodes {
		t.node.FlushMail(2 * time.Second)
	}
	time.Sleep(200 * time.Millisecond)
	stats1, wire1 := tc.totals()
	depthMin := 0
	for i, t := range tc.nodes {
		if d := t.node.Stats().OutboxDepth; i == 0 || d < depthMin {
			depthMin = d
		}
	}

	// Store layer: snapshot save and reload of replica 3 at the workload's
	// final store size (rejoin already timed its restarts).
	if workload != "rejoin" {
		t := tc.nodes[2]
		path := filepath.Join(dir, "final.snap")
		s := time.Now()
		if err := t.node.SaveSnapshot(path); err != nil {
			return nil, err
		}
		tc.rec.span("store.snapshot_save", t.site, 0, 0, s, time.Now())
		cfg := t.cfg
		cfg.SnapshotPath = path
		cfg.Logger = nil
		s = time.Now()
		if _, err := epidemic.NewNode(cfg); err != nil {
			return nil, err
		}
		tc.rec.span("store.snapshot_load", t.site, 0, 0, s, time.Now())
	}
	keys := tc.nodes[2].node.Store().Len()
	// Stop everything that calls into the recorder before reading it.
	stopSampling()
	tc.close()

	out := tc.layerMetrics(workload, cl, e2e, m, stats0, stats1, wire0, wire1, missed)
	// Sanity checks, reported and left standing. The outbox counts an
	// enqueue that coalesces into an already queued entry as coalesced,
	// not enqueued, so every enqueued entry must end up dropped, sent in a
	// batch (or per-entry mail), or still queued.
	out["sanity.outbox_depth_min"] = float64(depthMin)
	enq := float64(stats1.OutboxEnqueued - stats0.OutboxEnqueued)
	out["sanity.outbox_unaccounted"] = enq - float64(stats1.OutboxDropped-stats0.OutboxDropped) -
		tc.rec.count["outbox.sent_entries"] - float64(stats1.OutboxDepth-stats0.OutboxDepth)
	if workload == "rejoin" {
		out["sanity.rejoin_applied_gap"] = float64(missed - appliedStat)
	}
	out["store.snapshot_load_ms"] = derefSamples(tc.rec.hist["store.snapshot_load"]).quantileMs(0.5)
	out["store.snapshot_save_ms"] = derefSamples(tc.rec.hist["store.snapshot_save"]).quantileMs(0.5)
	out["store.keys"] = float64(keys)
	self := tc.rec.selfTimes()
	for _, l := range []string{"client", "node", "transport", "serve", "core", "store", "obs"} {
		out["self."+l+"_ms"] = self[l]
	}
	out["trace.span_cost_ns"] = spanCost()
	out["trace.spans"] = float64(len(tc.rec.spans) + tc.rec.dropped)
	out["trace.ops"] = float64(cl.ops.Load())
	if err := tc.rec.writeSpans(filepath.Join(env.root, ".bench_build", "perfbench",
		fmt.Sprintf("spans-%s-seed%d.tsv", workload, seed))); err != nil {
		return nil, err
	}
	writeLayerReport(w, workload, out, tc.rec, missed, appliedStat, applyEvents, wire1.ShardVecDowngrades-wire0.ShardVecDowngrades)
	return out, nil
}

// layerMetrics derives the per-layer metrics from the recorder and the
// stats deltas.
func (tc *tcluster) layerMetrics(workload string, cl *tclient, e2e *e2eResult, m map[string]float64,
	s0, s1 epidemic.NodeStats, w0, w1 epidemic.WireSnapshot, missed int) map[string]float64 {
	r := tc.rec
	q := func(name string, p float64, scale float64) float64 {
		h := r.hist[name]
		if h == nil || len(*h) == 0 {
			return 0
		}
		return h.quantileMs(p) * scale
	}
	out := map[string]float64{}
	out["node.update_us_p50"] = q("node.update", 0.5, 1e3)
	out["node.update_us_p99"] = q("node.update", 0.99, 1e3)
	out["node.lookup_us_p50"] = q("node.lookup", 0.5, 1e3)
	out["node.lookup_us_p99"] = q("node.lookup", 0.99, 1e3)
	out["gossipd.write_overhead_us"] = m["write_p50_ms"]*1e3 - out["node.update_us_p50"]
	out["gossipd.read_overhead_us"] = m["read_p50_ms"]*1e3 - out["node.lookup_us_p50"]
	out["gossipd.idle_cpu_ms_per_s"] = e2e.idleCPU
	out["node.t_avg_ms"] = ratio(r.tavgSum, float64(r.tavgN))
	if len(r.tlast) > 0 {
		out["node.t_last_ms_p50"] = r.tlast.quantileMs(0.5)
		out["node.t_last_ms_p99"] = r.tlast.quantileMs(0.99)
	}
	out["node.rumor_rounds"] = float64(s1.RumorRuns - s0.RumorRuns)
	writes := float64(len(derefSamples(r.hist["node.update"])))
	out["node.push_entries_per_update"] = ratio(r.count["transport.push_entries"], writes)
	enq := float64(s1.OutboxEnqueued - s0.OutboxEnqueued)
	out["outbox.enqueued"] = enq
	out["outbox.coalesced_ratio"] = ratio(float64(s1.OutboxCoalesced-s0.OutboxCoalesced), enq)
	out["outbox.dropped_ratio"] = ratio(float64(s1.OutboxDropped-s0.OutboxDropped), enq)
	out["outbox.entries_per_batch"] = ratio(r.count["outbox.sent_entries"]-float64(len(derefSamples(r.hist["transport.mail"]))), r.count["outbox.batches"])
	out["outbox.queue_wait_ms_p50"] = q("outbox.queue_wait", 0.5, 1)
	out["outbox.queue_wait_ms_p99"] = q("outbox.queue_wait", 0.99, 1)
	out["transport.mail_batch_us_p50"] = q("transport.mail_batch", 0.5, 1e3)
	out["transport.mail_batch_us_p99"] = q("transport.mail_batch", 0.99, 1e3)
	out["transport.mail_batch_errors"] = r.count["transport.mail_batch_errors"]
	out["transport.push_rumors_us_p50"] = q("transport.push_rumors", 0.5, 1e3)
	out["transport.push_rumors_calls"] = r.count["transport.push_rumors_calls"]
	out["transport.pull_rumors_calls"] = r.count["transport.pull_rumors_calls"]
	out["transport.checksum_calls"] = r.count["transport.checksum_calls"]
	for _, kind := range []string{"mail-batch", "sync", "shard-vector", "peel-back-shard", "pull-rumors", "push-rumors", "udp-push-rumors"} {
		out["transport.serve_us_p50."+kind] = q("transport.serve."+kind, 0.5, 1e3)
		out["transport.serve_us_p99."+kind] = q("transport.serve."+kind, 0.99, 1e3)
	}
	ops := float64(cl.ops.Load())
	if workload == "rejoin" {
		ops = float64(missed)
	}
	out["transport.bytes_per_op"] = ratio(float64(w1.BytesSent-w0.BytesSent), ops)
	out["transport.redials"] = float64(w1.Redials - w0.Redials)
	out["transport.udp_fallback_ratio"] = ratio(float64(w1.UDPFallbacks-w0.UDPFallbacks), float64(w1.UDPPushes-w0.UDPPushes))
	out["transport.shardvec_downgrades"] = float64(w1.ShardVecDowngrades - w0.ShardVecDowngrades)
	out["core.ae_ms_p50"] = q("core.ae", 0.5, 1)
	out["core.ae_ms_p99"] = q("core.ae", 0.99, 1)
	out["core.ae_calls"] = r.count["core.ae_calls"]
	out["core.ae_errors"] = r.count["core.ae_errors"]
	transferred := r.count["core.ae_sent"] + r.count["core.ae_received"]
	out["core.ae_entries_per_missed"] = ratio(transferred, float64(missed))
	out["core.ae_useful_ratio"] = ratio(r.count["core.ae_applied"], transferred)
	out["core.ae_full_compares"] = r.count["core.ae_full_compares"]
	out["core.ae_shards_repaired"] = r.count["core.ae_shards_repaired"]
	out["obs.history_sample_us"] = q("obs.history_sample", 0.5, 1e3)
	return out
}

func derefSamples(s *samples) samples {
	if s == nil {
		return nil
	}
	return *s
}

// layerOf maps a span name to its layer.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "client."):
		return "client"
	case strings.HasPrefix(name, "node."):
		return "node"
	case strings.HasPrefix(name, "transport.serve."):
		return "serve"
	case strings.HasPrefix(name, "transport."):
		return "transport"
	case strings.HasPrefix(name, "core."):
		return "core"
	case strings.HasPrefix(name, "store."):
		return "store"
	default:
		return "obs"
	}
}

// selfTimes returns each layer's self time in ms: span durations minus the
// part of each span its children cover.
func (r *recorder) selfTimes() map[string]float64 {
	child := make(map[uint64]int64)
	for _, s := range r.spans {
		if s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := make(map[string]float64)
	for _, s := range r.spans {
		d := s.end - s.start - child[s.id]
		if d < 0 {
			d = 0
		}
		self[layerOf(s.name)] += float64(d) / 1e6
	}
	return self
}

// writeSpans writes the span log as tab-separated rows.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\tparent\top\tsite\tname\tstart_ns\tend_ns")
	for _, s := range r.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.op, s.site, s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCost measures the recorder's cost per span.
func spanCost() float64 {
	r := newRecorder()
	const n = 20000
	t := time.Now()
	for i := 0; i < n; i++ {
		r.span("node.update", 1, 0, uint64(i), t, t)
	}
	return float64(time.Since(t).Nanoseconds()) / n
}

// closedInProcess runs one goroutine per origin replica, calling the node
// back to back (a gossipd client connection is served by one goroutine),
// or at rate calls per second over all of them when rate > 0.
func closedInProcess(tc *tcluster, cl *tclient, seed int64, origins []int, nkeys, setPct, delPct, rate int, seconds time.Duration) {
	deadline := time.Now().Add(seconds)
	var wg sync.WaitGroup
	for conn, i := range origins {
		wg.Add(1)
		go func(conn int, t *tnode) {
			defer wg.Done()
			m := newMix(seed, conn, nkeys, zipfS, setPct, delPct, deadline)
			if rate > 0 {
				m.pace = time.Second * time.Duration(len(origins)) / time.Duration(rate)
			}
			for {
				o, ok := m.next()
				if !ok {
					return
				}
				cl.do(t.node, t.site, o, time.Now())
			}
		}(conn, tc.nodes[i])
	}
	wg.Wait()
}

// steadyInProcess is the open loop at steadyRate against replica 1.
func steadyInProcess(tc *tcluster, cl *tclient, seed int64, seconds time.Duration) {
	t0 := time.Now()
	deadline := t0.Add(seconds)
	m := newMix(seed, 0, steadyKeys, 0, 50, 0, deadline)
	interval := time.Second / steadyRate
	t := tc.nodes[0]
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		cl.do(t.node, t.site, m.op(), due)
	}
}

// preloadInProcess writes each origin's key range and waits until every
// replica holds all of them.
func preloadInProcess(tc *tcluster, origins []int, n int) {
	for conn, i := range origins {
		n0 := tc.nodes[i].node
		for k := 0; k < n; k++ {
			n0.Update(keyName(conn, k), epidemic.Value(valueFor(conn, -k-1)))
			if k%256 == 255 {
				// Drain before the per-peer queues overflow, so preload
				// converges by mail rather than by anti-entropy.
				n0.FlushMail(2 * time.Second)
			}
		}
	}
	want := n * len(origins)
	deadline := time.Now().Add(60 * time.Second)
	for _, t := range tc.nodes {
		for t.node.Store().Len() < want && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// rejoinInProcess mirrors rejoinLoad in process: save replica 3's snapshot,
// stop it, write δ at replicas 1 and 2, wait out τ and the rumors, restart
// it from the snapshot, and poll Lookup until every missed write is there.
// It returns the missed writes, replica 3's EntriesApplied after each
// catch-up, and the apply events it emitted, each summed over cycles.
func rejoinInProcess(tc *tcluster, cl *tclient, rng *rand.Rand, seconds time.Duration, sampleMu *sync.Mutex) (missed, appliedStat, applyEvents int, err error) {
	delta := int(float64(2*rejoinKeys) * rejoinDeltaPct / 100)
	deadline := time.Now().Add(seconds)
	seq := 0
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		t3 := tc.nodes[2]
		s := time.Now()
		if err := t3.node.SaveSnapshot(""); err != nil {
			return 0, 0, 0, err
		}
		tc.rec.span("store.snapshot_save", 3, 0, 0, s, time.Now())
		// Keep the pre-stop snapshot: Stop writes a final one.
		snap := t3.cfg.SnapshotPath
		saved, err := os.ReadFile(snap)
		if err != nil {
			return 0, 0, 0, err
		}
		sampleMu.Lock()
		tc.stop(2)
		sampleMu.Unlock()
		if err := os.WriteFile(snap, saved, 0o644); err != nil {
			return 0, 0, 0, err
		}
		want := make(map[string]string)
		for conn := 0; conn < 2; conn++ {
			t := tc.nodes[conn]
			for _, idx := range rng.Perm(rejoinKeys)[:delta/2] {
				seq++
				o := op{kind: opSet, key: keyName(conn, idx), val: valueFor(conn, 1_000_000+seq)}
				want[o.key] = o.val
				cl.do(t.node, t.site, o, time.Now())
			}
		}
		time.Sleep(20 * tc.aeEvery)
		for wait := time.Now().Add(60 * time.Second); time.Now().Before(wait); time.Sleep(100 * time.Millisecond) {
			hot := false
			for _, t := range tc.nodes[:2] {
				for _, e := range t.node.HotEntries() {
					if _, ok := want[e.Key]; ok {
						hot = true
					}
				}
			}
			if !hot {
				break
			}
		}
		tc.rec.mu.Lock()
		before := tc.rec.appliedAt[3]
		tc.rec.mu.Unlock()
		sampleMu.Lock()
		err = tc.start(2)
		sampleMu.Unlock()
		if err != nil {
			return 0, 0, 0, err
		}
		n3 := tc.nodes[2].node
		for pending, t0 := len(want), time.Now(); pending > 0; {
			if time.Since(t0) > 60*time.Second {
				return 0, 0, 0, fmt.Errorf("in-process replica 3 still misses %d of %d writes after 60s", pending, len(want))
			}
			pending = 0
			for k, v := range want {
				if got, ok := n3.Lookup(k); !ok || string(got) != v {
					pending++
				}
			}
			if pending > 0 {
				time.Sleep(time.Millisecond)
			}
		}
		// Every missed write overwrote a key the snapshot held, so each
		// must have been applied once at the restarted replica.
		missed += len(want)
		appliedStat += n3.Stats().EntriesApplied
		tc.rec.mu.Lock()
		applyEvents += tc.rec.appliedAt[3] - before
		tc.rec.mu.Unlock()
	}
	return missed, appliedStat, applyEvents, nil
}

// writeLayerReport prints the per-layer table with each metric's meaning,
// plus which workloads load each layer.
func writeLayerReport(w io.Writer, workload string, out map[string]float64, r *recorder, missed, appliedStat, applyEvents int, downgrades int64) {
	fmt.Fprintf(w, "traced pass (%s): in-process replicas, spans written to .bench_build/perfbench/ (%d kept, %d over the cap)\n",
		workload, len(r.spans), r.dropped)
	for _, l := range layerSpec {
		fmt.Fprintf(w, "  %-40s %14.4f %-7s %s\n", l.name, out[l.name], l.unit, l.doc)
	}
	fmt.Fprintln(w, "layer load by workload: outbox heavy on ingest, light on browse, idle on rejoin catch-up; "+
		"core.ae_* heavy on rejoin, ~0 work elsewhere; node.lookup heavy on browse; transport.serve mail-batch heavy on ingest; "+
		"store snapshots only on rejoin restarts (other workloads time one save+load at the end)")
	var issues []string
	if out["sanity.outbox_depth_min"] < 0 {
		issues = append(issues, fmt.Sprintf("OutboxDepth %v < 0 at quiescence", out["sanity.outbox_depth_min"]))
	}
	if out["sanity.outbox_unaccounted"] != 0 {
		issues = append(issues, fmt.Sprintf("outbox enqueued != dropped+sent+change in depth (off by %v)", out["sanity.outbox_unaccounted"]))
	}
	if workload == "rejoin" && (appliedStat != missed || applyEvents != missed) {
		issues = append(issues, fmt.Sprintf("rejoined replica gained %d missed writes but counts EntriesApplied %d and %d apply events",
			missed, appliedStat, applyEvents))
	}
	if downgrades > 0 {
		issues = append(issues, fmt.Sprintf("%d shard-vector downgrades during the traced pass", downgrades))
	}
	for _, s := range issues {
		fmt.Fprintf(w, "SANITY (reported, not fixed here): %s\n", s)
	}
	names := make([]string, 0, len(r.hist))
	for n := range r.hist {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "span names: %s\n", strings.Join(names, " "))
}
