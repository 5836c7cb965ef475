package node

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"epidemic/internal/core"
	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// mkEntry builds a store entry with an explicit stamp for queue tests.
func mkEntry(key string, t int64) store.Entry {
	return store.Entry{Key: key, Value: store.Value("v"), Stamp: timestamp.T{Time: t, Site: 1}}
}

// idleOutbox builds an engine with zero workers: enqueues accumulate and
// nothing drains, so queue state can be inspected deterministically.
// (node.New never builds one of these — withDefaults maps 0 to the default
// pool — but newOutbox takes the config as given.)
func idleOutbox(t *testing.T, queuePerPeer int, peers ...Peer) *outbox {
	t.Helper()
	n, err := New(Config{Site: 1, Outbox: OutboxConfig{Workers: -1}})
	if err != nil {
		t.Fatal(err)
	}
	ox := newOutbox(OutboxConfig{Workers: 0, QueuePerPeer: queuePerPeer}, n)
	ox.setPeers(peers)
	return ox
}

func TestOutboxCoalesceNewestStampWins(t *testing.T) {
	p := &countingPeer{id: 2}
	ox := idleOutbox(t, 16, p)

	ox.enqueue(mkEntry("a", 10), trace.Hop{})
	ox.enqueue(mkEntry("b", 11), trace.Hop{})
	ox.enqueue(mkEntry("a", 20), trace.Hop{}) // newer version supersedes in place
	ox.enqueue(mkEntry("a", 5), trace.Hop{})  // older version is absorbed

	q := ox.queues[2]
	if len(q.keys) != 2 || q.keys[0] != "a" || q.keys[1] != "b" {
		t.Fatalf("keys = %v, want [a b] (coalescing keeps queue position)", q.keys)
	}
	if got := q.byKey["a"].entry.Stamp.Time; got != 20 {
		t.Errorf("queued stamp for a = %d, want 20 (newest wins)", got)
	}
	if got := ox.coalesced.Load(); got != 2 {
		t.Errorf("coalesced = %d, want 2", got)
	}
	if ox.pending != 2 {
		t.Errorf("pending = %d, want 2", ox.pending)
	}

	b := q.drainLocked(time.Now())
	if len(b.Entries) != 2 || b.Coalesced != 2 {
		t.Errorf("drain = %d entries, coalesced %d; want 2 and 2", len(b.Entries), b.Coalesced)
	}
	if len(q.keys) != 0 || len(q.byKey) != 0 {
		t.Error("drain left queue state behind")
	}
}

func TestOutboxDropOldestOnOverflow(t *testing.T) {
	p := &countingPeer{id: 2}
	ox := idleOutbox(t, 2, p)

	ox.enqueue(mkEntry("a", 1), trace.Hop{})
	ox.enqueue(mkEntry("b", 2), trace.Hop{})
	ox.enqueue(mkEntry("c", 3), trace.Hop{}) // overflows: a (oldest) is dropped

	q := ox.queues[2]
	if len(q.keys) != 2 || q.keys[0] != "b" || q.keys[1] != "c" {
		t.Fatalf("keys = %v, want [b c]", q.keys)
	}
	if got := ox.dropped.Load(); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	if ox.pending != 2 {
		t.Errorf("pending = %d, want 2", ox.pending)
	}
}

func TestOutboxSetPeersDropsDepartedKeepsSurvivors(t *testing.T) {
	p2, p3 := &countingPeer{id: 2}, &countingPeer{id: 3}
	ox := idleOutbox(t, 16, p2, p3)
	ox.enqueue(mkEntry("a", 1), trace.Hop{})
	ox.enqueue(mkEntry("b", 2), trace.Hop{})

	// Site 3 departs; site 2's peer object is replaced by a membership
	// refresh — its mail must follow the site.
	p2b := &countingPeer{id: 2}
	ox.setPeers([]Peer{p2b})
	if got := ox.dropped.Load(); got != 2 {
		t.Errorf("dropped = %d, want 2 (departed peer's queue)", got)
	}
	if ox.pending != 2 {
		t.Errorf("pending = %d, want 2 (survivor keeps its mail)", ox.pending)
	}
	q := ox.queues[2]
	if q == nil || q.peer != Peer(p2b) {
		t.Fatal("surviving queue did not adopt the replacement peer object")
	}
	if len(q.keys) != 2 {
		t.Errorf("survivor queue has %d keys, want 2", len(q.keys))
	}
}

// gatedBatchPeer blocks every MailBatch until released, recording each
// batch it eventually receives.
type gatedBatchPeer struct {
	countingPeer
	entered chan struct{} // signalled when a delivery starts blocking
	gate    chan struct{} // receive one token per delivery
	mu      sync.Mutex
	batches []MailBatch
}

func (p *gatedBatchPeer) MailBatch(b MailBatch) error {
	p.entered <- struct{}{}
	<-p.gate
	p.mu.Lock()
	p.batches = append(p.batches, b)
	p.mu.Unlock()
	return nil
}

func (p *gatedBatchPeer) snapshot() []MailBatch {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]MailBatch(nil), p.batches...)
}

func TestOutboxBatchesQueueBuiltWhileSending(t *testing.T) {
	n, err := New(Config{Site: 1, DirectMailOnUpdate: true, Outbox: OutboxConfig{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	p := &gatedBatchPeer{
		countingPeer: countingPeer{id: 2},
		entered:      make(chan struct{}, 8),
		gate:         make(chan struct{}, 8),
	}
	n.SetPeers([]Peer{p})

	// First update drains immediately and blocks in MailBatch; the next
	// three queue up behind it, including one coalescing supersession.
	n.Update("k1", store.Value("v1"))
	<-p.entered // the k1 drain is in flight and wedged
	n.Update("k2", store.Value("v2"))
	n.Update("k3", store.Value("v3"))
	n.Update("k2", store.Value("v2'"))
	p.gate <- struct{}{}
	p.gate <- struct{}{}
	if !n.FlushMail(2 * time.Second) {
		t.Fatal("flush timed out")
	}
	<-p.entered // the coalesced drain

	batches := p.snapshot()
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2 (first entry, then the coalesced rest)", len(batches))
	}
	if len(batches[0].Entries) != 1 || batches[0].Entries[0].Key != "k1" {
		t.Errorf("first batch = %+v, want just k1", batches[0].Entries)
	}
	second := batches[1]
	if len(second.Entries) != 2 {
		t.Fatalf("second batch carried %d entries, want 2 (k2 coalesced with its rewrite)", len(second.Entries))
	}
	if second.Coalesced != 1 {
		t.Errorf("second batch coalesced = %d, want 1", second.Coalesced)
	}
	for _, e := range second.Entries {
		if e.Key == "k2" && string(e.Value) != "v2'" {
			t.Errorf("k2 shipped %q, want the newest version v2'", e.Value)
		}
	}

	s := n.Stats()
	if s.OutboxEnqueued != 3 || s.OutboxCoalesced != 1 || s.OutboxBatches != 2 {
		t.Errorf("stats = enq %d coal %d batches %d, want 3/1/2",
			s.OutboxEnqueued, s.OutboxCoalesced, s.OutboxBatches)
	}
	if s.MailSent != 3 {
		t.Errorf("MailSent = %d, want 3", s.MailSent)
	}
}

func TestOutboxBackoffAndFlushTimeout(t *testing.T) {
	var down atomic.Bool
	down.Store(true)
	a, b, p := scriptedPair(t, OutboxConfig{
		Workers:      2,
		RetryBackoff: 50 * time.Millisecond,
		MaxBackoff:   time.Second,
		FlushTimeout: 100 * time.Millisecond,
	}, func(int) bool { return down.Load() })

	// The failed batch waits at the head of the queue for its retry, so
	// no flush completes while the peer is down: a flush reports failure
	// rather than lie.
	a.Update("k1", store.Value("v"))
	if a.FlushMail(300 * time.Millisecond) {
		t.Fatal("flush completed while every send failed")
	}
	if s := a.Stats(); s.MailFailed < 2 || s.OutboxDepth != 1 {
		t.Fatalf("MailFailed = %d, depth %d; want the first send and at least one retry failed, k1 still queued",
			s.MailFailed, s.OutboxDepth)
	}

	// Once the peer recovers, the next retry delivers and a patient flush
	// completes.
	down.Store(false)
	if !a.FlushMail(3 * time.Second) {
		t.Fatal("flush never completed after the peer recovered")
	}
	if s := a.Stats(); s.MailSent != 1 || s.OutboxDepth != 0 || s.OutboxDropped != 0 {
		t.Errorf("sent %d, depth %d, dropped %d; want 1, 0, 0", s.MailSent, s.OutboxDepth, s.OutboxDropped)
	}
	if got := p.deliveredKeys(); len(got) != 1 || got[0] != "k1" {
		t.Errorf("delivered %v, want k1 once", got)
	}
	if _, ok := b.Lookup("k1"); !ok {
		t.Error("retried mail did not reach the peer's replica")
	}
}

// scriptedPeer delivers mail to its target replica like a LocalPeer, but
// fails the MailBatch calls that fail selects (by 0-based call number).
// When entered is set, the first call signals it and then waits until
// release is closed, so a test can queue mail behind an in-flight send.
// It records the entries it delivered, in order, and how many entries
// rumor rounds pushed through it.
type scriptedPeer struct {
	*LocalPeer
	fail    func(call int) bool
	entered chan struct{}
	release chan struct{}

	mu        sync.Mutex
	calls     int
	starts    []time.Time
	delivered []store.Entry
	pushed    int
}

func (p *scriptedPeer) MailBatch(b MailBatch) error {
	p.mu.Lock()
	call := p.calls
	p.calls++
	p.starts = append(p.starts, time.Now())
	p.mu.Unlock()
	if call == 0 && p.entered != nil {
		p.entered <- struct{}{}
		<-p.release
	}
	if p.fail != nil && p.fail(call) {
		return ErrPeerDown
	}
	p.mu.Lock()
	p.delivered = append(p.delivered, b.Entries...)
	p.mu.Unlock()
	return p.LocalPeer.MailBatch(b)
}

func (p *scriptedPeer) PushRumors(entries []store.Entry, hops []trace.Hop) ([]bool, error) {
	p.mu.Lock()
	p.pushed += len(entries)
	p.mu.Unlock()
	return p.LocalPeer.PushRumors(entries, hops)
}

func (p *scriptedPeer) deliveredKeys() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := make([]string, len(p.delivered))
	for i, e := range p.delivered {
		keys[i] = e.Key
	}
	return keys
}

// gate makes the peer's first MailBatch call block until release is
// closed; <-p.entered then waits for that call to start.
func (p *scriptedPeer) gate() {
	p.entered = make(chan struct{}, 1)
	p.release = make(chan struct{})
}

// scriptedPair builds an origin node that direct-mails through an outbox
// configured by cfg to one scriptedPeer in front of a fresh replica.
func scriptedPair(t *testing.T, cfg OutboxConfig, fail func(call int) bool) (*Node, *Node, *scriptedPeer) {
	t.Helper()
	a, err := New(Config{Site: 1, DirectMailOnUpdate: true, Outbox: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Stop)
	b, err := New(Config{Site: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := &scriptedPeer{LocalPeer: NewLocalPeer(b, 1), fail: fail}
	a.SetPeers([]Peer{p})
	return a, b, p
}

// waitCalls polls until the peer has seen at least n MailBatch calls.
func waitCalls(t *testing.T, p *scriptedPeer, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		calls := p.calls
		p.mu.Unlock()
		if calls >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer saw %d MailBatch calls, want %d", calls, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOutboxRetriesFailedBatchInOrder(t *testing.T) {
	var down atomic.Bool
	down.Store(true)
	backoff := 50 * time.Millisecond
	a, b, p := scriptedPair(t, OutboxConfig{Workers: 2, RetryBackoff: backoff},
		func(int) bool { return down.Load() })
	p.gate()

	// k1's send is in flight when k2 and k3 queue behind it; it then
	// fails and must go back ahead of them.
	a.Update("k1", store.Value("v"))
	<-p.entered
	a.Update("k2", store.Value("v"))
	a.Update("k3", store.Value("v"))
	failedAt := time.Now()
	close(p.release)
	waitCalls(t, p, 2) // the first retry, still failing
	down.Store(false)
	if !a.FlushMail(5 * time.Second) {
		t.Fatal("flush timed out after the peer recovered")
	}

	p.mu.Lock()
	retry := p.starts[1]
	p.mu.Unlock()
	if wait := retry.Sub(failedAt); wait < backoff {
		t.Errorf("retry %v after the failure, want at least the %v backoff", wait, backoff)
	}
	got := p.deliveredKeys()
	if len(got) != 3 || got[0] != "k1" || got[1] != "k2" || got[2] != "k3" {
		t.Fatalf("delivered %v, want [k1 k2 k3] once each, in order", got)
	}
	for _, k := range got {
		if _, ok := b.Lookup(k); !ok {
			t.Errorf("%s missing at the peer's replica", k)
		}
	}
	s := a.Stats()
	if s.OutboxEnqueued != 3 || s.MailSent != 3 || s.OutboxDropped != 0 {
		t.Errorf("enqueued %d, sent %d, dropped %d; want 3, 3, 0 (a retry is not a new enqueue)",
			s.OutboxEnqueued, s.MailSent, s.OutboxDropped)
	}
	if a.HotCount() != 0 {
		t.Errorf("retried mail made %d rumors hot, want 0", a.HotCount())
	}
}

func TestOutboxNewerVersionWinsOverFailedSend(t *testing.T) {
	a, b, p := scriptedPair(t, OutboxConfig{Workers: 2, RetryBackoff: 10 * time.Millisecond},
		func(call int) bool { return call == 0 })
	p.gate()

	a.Update("k", store.Value("v1"))
	<-p.entered
	a.Update("k", store.Value("v2")) // queued while v1's send is in flight
	close(p.release)                 // v1's send fails
	if !a.FlushMail(5 * time.Second) {
		t.Fatal("flush timed out")
	}

	p.mu.Lock()
	delivered := append([]store.Entry(nil), p.delivered...)
	p.mu.Unlock()
	if len(delivered) != 1 || string(delivered[0].Value) != "v2" {
		t.Fatalf("delivered %+v, want only k=v2", delivered)
	}
	if v, _ := b.Lookup("k"); string(v) != "v2" {
		t.Errorf("peer holds %q, want v2", v)
	}
	s := a.Stats()
	if s.OutboxEnqueued != 2 || s.OutboxDropped != 1 || s.MailSent != 1 || s.OutboxDepth != 0 {
		t.Errorf("enqueued %d, dropped %d, sent %d, depth %d; want 2, 1, 1, 0",
			s.OutboxEnqueued, s.OutboxDropped, s.MailSent, s.OutboxDepth)
	}
	if a.HotCount() != 0 {
		t.Error("the superseded version was made hot; the newer one is mailed instead")
	}
}

func TestOutboxOverflowDropBecomesRumor(t *testing.T) {
	a, b, p := scriptedPair(t, OutboxConfig{Workers: 2, QueuePerPeer: 2}, nil)
	p.gate()

	a.Update("k1", store.Value("v"))
	<-p.entered // k1 in flight; the queue fills behind it
	a.Update("k2", store.Value("v"))
	a.Update("k3", store.Value("v"))
	a.Update("k4", store.Value("v")) // overflows: k2 (oldest) is dropped
	hot := a.HotEntries()
	if len(hot) != 1 || hot[0].Key != "k2" {
		t.Fatalf("hot at origin = %v, want just the dropped k2", hot)
	}
	close(p.release)
	if !a.FlushMail(5 * time.Second) {
		t.Fatal("flush timed out")
	}
	if _, ok := b.Lookup("k2"); ok {
		t.Fatal("dropped mail was delivered")
	}
	if s := a.Stats(); s.OutboxDropped != 1 {
		t.Errorf("dropped = %d, want 1", s.OutboxDropped)
	}

	if err := a.StepRumor(); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Lookup("k2"); !ok {
		t.Error("the rumor round did not carry the dropped entry to the peer")
	}
	if p.pushed != 1 {
		t.Errorf("rumor round pushed %d entries, want 1 (only the dropped one)", p.pushed)
	}
}

func TestOutboxAccountingWithFlakyPeer(t *testing.T) {
	a, b, p := scriptedPair(t, OutboxConfig{Workers: 2, QueuePerPeer: 8, RetryBackoff: time.Millisecond},
		func(call int) bool { return call%2 == 0 })
	for i := 0; i < 300; i++ {
		a.Update(fmt.Sprintf("k%02d", i%40), store.Value(fmt.Sprint(i)))
		if i%25 == 0 {
			time.Sleep(time.Millisecond) // let drains interleave with writes
		}
	}
	if !a.FlushMail(10 * time.Second) {
		t.Fatal("flush timed out")
	}

	s := a.Stats()
	if s.OutboxEnqueued != s.MailSent+s.OutboxDropped+s.OutboxDepth {
		t.Errorf("enqueued %d != sent %d + dropped %d + depth %d",
			s.OutboxEnqueued, s.MailSent, s.OutboxDropped, s.OutboxDepth)
	}
	if n := len(p.deliveredKeys()); n != s.MailSent {
		t.Errorf("peer took %d entries, origin counts %d sent", n, s.MailSent)
	}
	if s.MailFailed == 0 {
		t.Error("no send failed; the flaky peer never engaged")
	}
	// Nothing is silently lost: each key is either at the peer in its
	// newest version or hot at the origin.
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("k%02d", i)
		want, _ := a.Store().Get(k)
		got, ok := b.Store().Get(k)
		if ok && got.Stamp == want.Stamp {
			continue
		}
		a.mu.Lock()
		hot := a.hot.IsHot(k, want.Stamp)
		a.mu.Unlock()
		if !hot {
			t.Errorf("%s: peer has %v, origin %v, and it is not hot", k, got.Stamp, want.Stamp)
		}
	}
}

func TestOutboxAckedMailPushesNoRumors(t *testing.T) {
	a, b, p := scriptedPair(t, OutboxConfig{Workers: 2}, nil)
	for i := 0; i < 10; i++ {
		a.Update(fmt.Sprintf("k%d", i), store.Value("v"))
	}
	if !a.FlushMail(5 * time.Second) {
		t.Fatal("flush timed out")
	}
	if err := a.StepRumor(); err != nil {
		t.Fatal(err)
	}
	if p.pushed != 0 {
		t.Errorf("rumor round pushed %d entries after every mail was acknowledged, want 0", p.pushed)
	}
	if a.HotCount() != 0 || b.HotCount() != 0 {
		t.Errorf("hot: origin %d, receiver %d; want 0 and 0", a.HotCount(), b.HotCount())
	}
}

// blockingMailPeer wedges every Mail call until the test releases it —
// the pathological slow peer of the Stats-under-lock regression.
type blockingMailPeer struct {
	countingPeer
	release chan struct{}
}

func (p *blockingMailPeer) Mail(store.Entry, trace.Hop) error {
	<-p.release
	return nil
}

// TestRedistributeMailDoesNotBlockStats pins the fix for a lock-ordering
// bug: redistributeRepaired used to hold n.mu across every peer Mail call,
// so one wedged peer made Stats (and Update, and pickPeer) hang. Serial
// mode (Workers < 0) exercises the same collect-then-send path the outbox
// case gets for free.
func TestRedistributeMailDoesNotBlockStats(t *testing.T) {
	a, err := New(Config{
		Site:           1,
		Redistribution: core.RedistributeMail,
		Outbox:         OutboxConfig{Workers: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	slow := &blockingMailPeer{countingPeer: countingPeer{id: 3}, release: make(chan struct{})}
	a.SetPeers([]Peer{slow})
	a.Update("k", store.Value("v"))

	// Redistribute k as an exchange would after repairing it: the remail
	// wedges on the slow peer, outside n.mu.
	done := make(chan struct{})
	go func() {
		a.redistributeRepaired(core.ExchangeStats{AppliedKeys: []string{"k"}})
		close(done)
	}()

	probe := make(chan Stats, 1)
	go func() { probe <- a.Stats() }()
	select {
	case <-probe:
		// Stats returned while mail was blocked: the lock is free.
	case <-time.After(2 * time.Second):
		t.Fatal("Stats() blocked behind a wedged redistribution mail")
	}
	select {
	case <-done:
		t.Fatal("redistribution finished without the peer unblocking — the wedge never engaged")
	default:
	}

	close(slow.release)
	<-done
	if s := a.Stats(); s.Redistributed != 1 || s.MailSent != 1 {
		t.Errorf("redistributed %d, mail sent %d; want 1 and 1", s.Redistributed, s.MailSent)
	}
}
