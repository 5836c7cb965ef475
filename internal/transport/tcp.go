package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"epidemic/internal/core"
	"epidemic/internal/node"
	"epidemic/internal/obs/cluster"
	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// Wire protocol: persistent framed sessions (see frame.go) carrying many
// request/response pairs per TCP connection. The anti-entropy exchange is
// the §1.3 checksum scheme compared as of a cut. Round 0 (reqSync) fixes
// the cut c at the initiator's clock reading and swaps live checksums over
// the entries stamped at or before c, with the per-shard checksum vectors
// folded into the same round trip. Every store has store.Shards stripes
// and maps a key to the same one, so the vectors always compare. Agreeing
// sums end the conversation with no entries shipped. On mismatch the two
// sides peel back from c through the diverged shards in reverse-timestamp
// batches, re-comparing the shard checksums at the cut after each batch,
// so a conversation ships O(δ) entries for δ differing keys. Writes
// stamped after c never move the target: mail, rumors and the next
// conversation carry them. No recent-update list crosses the wire. A full
// database swap survives only as a capped last resort.
type reqKind int

const (
	reqMail reqKind = iota + 1
	reqPushRumors
	reqPullRumors
	reqSync          // round 0: checksum (+ shard vector) as of the cut
	reqFullSync      // full live-database swap (capped last resort)
	reqChecksum      // live checksum probe (§1.5 combined scheme), or as of a cut
	_                // reserved: kind numbers are on the wire
	_                // reserved
	reqPeelBackShard // one shard-scoped peel batch + that shard's checksum
	reqMailBatch     // one outbox drain: many mail entries in one frame
)

// kindName names a request kind for logs and metric labels.
func (k reqKind) kindName() string {
	switch k {
	case reqMail:
		return "mail"
	case reqPushRumors:
		return "push-rumors"
	case reqPullRumors:
		return "pull-rumors"
	case reqSync:
		return "sync"
	case reqFullSync:
		return "full-sync"
	case reqChecksum:
		return "checksum"
	case reqPeelBackShard:
		return "peel-back-shard"
	case reqMailBatch:
		return "mail-batch"
	default:
		return "unknown"
	}
}

type request struct {
	Kind     reqKind
	From     timestamp.SiteID
	Entries  []store.Entry
	Checksum uint64
	// Now is the conversation's cut on every anti-entropy request: the
	// initiator's clock reading at round 0. Figures count only entries
	// stamped at or before it, and dormancy is judged at it.
	Now  int64
	Tau1 int64 // death-certificate dormancy threshold
	// Bound and Limit drive the server's side of the peel-back walk
	// (reqPeelBackShard): the server returns up to Limit entries of the
	// shard strictly older than Bound, newest first. The server is stateless across rounds; the
	// caller echoes back the Bound each response hands it.
	Bound timestamp.T
	Limit int
	// Hops carries one provenance envelope per entry in Entries when the
	// sender traces. nil — the common untraced case — costs one zero byte.
	Hops []trace.Hop
	// Digests piggybacks the sender's cluster-digest view on reqSync and
	// reqPullRumors conversations (the observatory's epidemic channel).
	// nil when the observatory is off: one zero byte.
	Digests []cluster.Digest
	// Shard addresses one lock stripe in [0, store.Shards) for
	// reqPeelBackShard. Vector carries the sender's store.Shards per-shard
	// checksums as of the cut on reqSync and on the recompare after shard
	// repair. Unused, the two cost two zero bytes.
	Shard  int
	Vector []uint64
	// MailQueuedNanos and MailCoalesced are a reqMailBatch's sender-side
	// outbox telemetry: the queueing age of the batch's oldest entry and
	// the supersessions coalesced away while it queued. Two zero bytes on
	// every other kind.
	MailQueuedNanos int64
	MailCoalesced   int64
}

type response struct {
	Needed   []bool
	Entries  []store.Entry
	InSync   bool
	Checksum uint64
	// Bound and More resume the server's peel-back walk: Bound is the
	// oldest index record the server examined, More whether records older
	// than it remain.
	Bound timestamp.T
	More  bool
	// Hops mirrors request.Hops for the response's Entries.
	Hops []trace.Hop
	Err  string
	// Digests mirrors request.Digests: the responder's view, piggybacked
	// back so digest exchange is bidirectional like the data exchange.
	Digests []cluster.Digest
	// Vector answers a comparison that carried one: the responder's
	// per-shard checksums as of the cut when the global sums disagree. For
	// reqPeelBackShard the Checksum field carries the requested shard's
	// checksum instead of the global one.
	Vector []uint64
}

// Server-side session limits: an idle session is reaped after
// serverIdleTimeout without a request; a response write gets
// serverWriteTimeout.
const (
	serverIdleTimeout  = 2 * time.Minute
	serverWriteTimeout = 30 * time.Second
)

// ServerOptions tunes a Server. The zero value binds the UDP fast path.
type ServerOptions struct {
	// Codec names the wire format: "" or "binary", the only one there is.
	// ServeWith refuses any other name.
	Codec string
	// DisableUDP skips binding the UDP fast-path socket; rumor pushes from
	// UDP-enabled peers then time out once and fall back to pooled TCP.
	DisableUDP bool
}

// Server exposes a node.Node to remote TCPPeers over persistent framed
// sessions, plus a UDP socket on the same port for single-datagram rumor
// pushes.
type Server struct {
	node *node.Node
	ln   net.Listener
	udp  *net.UDPConn // nil when the fast path is disabled
	wg   sync.WaitGroup
	mu   sync.Mutex
	done bool

	conns map[net.Conn]struct{}

	log      *slog.Logger
	observer func(kind string, d time.Duration)
}

// Serve starts a server for n on addr ("host:port", ":0" for an ephemeral
// port) with default options. It returns immediately; use Addr for the
// bound address and Close to stop.
func Serve(n *node.Node, addr string) (*Server, error) {
	return ServeWith(n, addr, ServerOptions{})
}

// ServeWith starts a server with explicit options.
func ServeWith(n *node.Node, addr string, opts ServerOptions) (*Server, error) {
	if opts.Codec != "" && opts.Codec != "binary" {
		return nil, fmt.Errorf("transport: unknown codec %q (the only wire format is binary)", opts.Codec)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &Server{
		node:  n,
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
		log:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if !opts.DisableUDP {
		// Same port as TCP so one advertised address serves both paths. A
		// bind failure (port taken by another process's UDP socket) is not
		// fatal: peers fall back to TCP.
		if uaddr, err := net.ResolveUDPAddr("udp", ln.Addr().String()); err == nil {
			if uc, err := net.ListenUDP("udp", uaddr); err == nil {
				s.udp = uc
				s.wg.Add(1)
				go s.serveUDP(uc)
			}
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// SetLogger installs a structured logger for request handling (served
// requests at Debug, decode failures at Warn). Call before traffic
// arrives; nil restores the discard logger.
func (s *Server) SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.mu.Lock()
	s.log = l
	s.mu.Unlock()
}

// SetObserver installs a per-request hook (kind, handling duration) used
// to bridge transport traffic into a metrics registry. Call before traffic
// arrives.
func (s *Server) SetObserver(fn func(kind string, d time.Duration)) {
	s.mu.Lock()
	s.observer = fn
	s.mu.Unlock()
}

func (s *Server) instruments() (*slog.Logger, func(string, time.Duration)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log, s.observer
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every open session, and waits for
// in-flight handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	s.done = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	if s.udp != nil {
		_ = s.udp.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// track registers an accepted connection; it reports false (and closes the
// conn) when the server is already shutting down.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		_ = conn.Close()
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.closing() {
				return
			}
			continue
		}
		if !s.track(conn) {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

// handle serves one persistent session: after the hello, requests are
// read and answered on the same framed streams until the client
// disconnects, the session idles out, or the stream breaks. A connection
// that does not open with this build's hello is closed unserved. One
// request/response pair is kept alive across the loop so a steady-state
// session serves without allocating.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	sess := newSession(conn, maxWireBytes)
	_ = conn.SetReadDeadline(time.Now().Add(serverIdleTimeout))
	log, observe := s.instruments()
	if err := sess.serverHandshake(); err != nil {
		if errors.Is(err, ErrWireVersion) {
			log.Warn("gossip connection refused",
				"remote", conn.RemoteAddr().String(), "err", err)
		}
		return
	}
	// slog's variadic attrs allocate even against a discard handler, so the
	// per-request Debug line is gated on the handler level once per session.
	debug := log.Enabled(context.Background(), slog.LevelDebug)
	var req request
	var resp response
	for {
		_ = conn.SetReadDeadline(time.Now().Add(serverIdleTimeout))
		if err := sess.readRequest(&req); err != nil {
			if !errors.Is(err, io.EOF) && !s.closing() {
				log.Warn("gossip session ended abnormally",
					"remote", conn.RemoteAddr().String(), "err", err)
			}
			return
		}
		start := time.Now()
		resp = s.dispatch(req)
		d := time.Since(start)
		if observe != nil {
			observe(req.Kind.kindName(), d)
		}
		if debug {
			log.Debug("gossip request served", "kind", req.Kind.kindName(),
				"from", int(req.From), "entries", len(req.Entries), "dur", d)
		}
		_ = conn.SetWriteDeadline(time.Now().Add(serverWriteTimeout))
		if err := sess.writeResponse(&resp); err != nil {
			log.Warn("gossip response write failed",
				"remote", conn.RemoteAddr().String(), "err", err)
			return
		}
	}
}

// peelLimitCap bounds the batch size a remote caller can demand from the
// server-side peel walk.
const peelLimitCap = 8192

// clampPeelLimit sanitises a wire-supplied batch size.
func clampPeelLimit(limit int) int {
	if limit <= 0 {
		return core.DefaultPeelBatch
	}
	if limit > peelLimitCap {
		return peelLimitCap
	}
	return limit
}

func (s *Server) dispatch(req request) response {
	switch req.Kind {
	case reqMail:
		for i, e := range req.Entries {
			s.node.HandleMail(e, hopAt(req.Hops, i))
		}
		return response{}
	case reqMailBatch:
		return response{Needed: s.node.HandleMailBatch(node.MailBatch{
			Entries:     req.Entries,
			Hops:        req.Hops,
			QueuedNanos: req.MailQueuedNanos,
			Coalesced:   int(req.MailCoalesced),
		})}
	case reqPushRumors:
		return response{Needed: s.node.HandleRumors(req.Entries, req.Hops)}
	case reqPullRumors:
		entries, hops := s.node.HotEntriesTraced()
		return response{Entries: entries, Hops: hops, Digests: s.swapDigests(req.Digests)}
	case reqSync:
		resp := s.compareAt(req)
		resp.Digests = s.swapDigests(req.Digests)
		return resp
	case reqFullSync:
		st := s.node.Store()
		for i, e := range req.Entries {
			s.node.ApplyRepair(e, req.From, hopAt(req.Hops, i), trace.MechAntiEntropy)
		}
		now := maxInt64(st.Now(), req.Now)
		full := st.LiveSnapshot(now, req.Tau1)
		return response{
			Entries:  full,
			Hops:     s.node.Tracer().Envelopes(full),
			Checksum: st.ChecksumLive(now, req.Tau1),
			InSync:   true,
		}
	case reqChecksum:
		// A plain probe (Peer.Checksum) carries no vector; the recompare
		// after shard repair carries the initiator's vector at its cut.
		if len(req.Vector) > 0 {
			return s.compareAt(req)
		}
		st := s.node.Store()
		return response{Checksum: st.ChecksumLive(st.Now(), req.Tau1)}
	case reqPeelBackShard:
		if req.Shard < 0 || req.Shard >= store.Shards {
			return response{Err: fmt.Sprintf("shard %d outside [0,%d)", req.Shard, store.Shards)}
		}
		return s.peel(req)
	default:
		return response{Err: fmt.Sprintf("unknown request kind %d", req.Kind)}
	}
}

// compareAt answers a comparison as of the initiator's cut req.Now (round
// 0 and the recompares after shard repair): this replica's checksum at the
// cut, plus its per-shard vector when the sums disagree. A vector of any
// width but store.Shards is malformed and refused.
func (s *Server) compareAt(req request) response {
	if len(req.Vector) != store.Shards {
		return response{Err: fmt.Sprintf("shard vector has %d sums, want %d", len(req.Vector), store.Shards)}
	}
	st := s.node.Store()
	sum := st.ChecksumAt(req.Now, req.Tau1)
	resp := response{Checksum: sum, InSync: sum == req.Checksum}
	if !resp.InSync {
		resp.Vector = st.AppendChecksumVectorAt(nil, req.Now, req.Tau1)
	}
	return resp
}

// peel serves one round of an initiator's peel-back walk over shard
// req.Shard as of its cut req.Now. It applies what the initiator shipped,
// then answers with the next batch of this replica's own walk of that
// shard, the shard's checksum at the cut, and the local entries past the
// cut that supersede anything the initiator shipped.
func (s *Server) peel(req request) response {
	st := s.node.Store()
	cut := req.Now
	var back []store.Entry
	for i, e := range req.Entries {
		if !s.node.ApplyRepair(e, req.From, hopAt(req.Hops, i), trace.MechPeelBack).Changed() {
			back = appendSupersedingPastCut(back, st, e, cut)
		}
	}
	batch, next, more := st.PeelBatchShard(req.Shard, req.Bound, clampPeelLimit(req.Limit), cut, req.Tau1)
	batch = append(batch, back...)
	return response{
		Entries:  batch,
		Hops:     s.node.Tracer().Envelopes(batch),
		Checksum: st.ChecksumShardAt(req.Shard, cut, req.Tau1),
		Bound:    next,
		More:     more,
	}
}

// appendSupersedingPastCut appends local's entry for e.Key when it is
// stamped after cut and supersedes e. A peer that ships e lacks that
// entry, and neither side's walk from the cut would ever carry it, so the
// key would keep the two cut checksums apart until the walks ran out:
// shipping it back settles the key on both sides.
func appendSupersedingPastCut(dst []store.Entry, local *store.Store, e store.Entry, cut int64) []store.Entry {
	if ts, ok := local.Stamp(e.Key); !ok || ts.Time <= cut || !e.Stamp.Less(ts) {
		return dst
	}
	if cur, ok := local.Get(e.Key); ok {
		dst = append(dst, cur)
	}
	return dst
}

// swapDigests merges digests a caller piggybacked into this node's
// directory and returns the local view to piggyback back. All nil-safe:
// with the observatory off both directions are nil and cost nothing.
func (s *Server) swapDigests(in []cluster.Digest) []cluster.Digest {
	dir := s.node.Digests()
	if dir == nil && in == nil {
		return nil
	}
	dir.Merge(in)
	return dir.Share()
}

// hopAt returns hops[i], or the zero (no-envelope) Hop when the sender
// shipped no envelopes or fewer than entries.
func hopAt(hops []trace.Hop, i int) trace.Hop {
	if i < len(hops) {
		return hops[i]
	}
	return trace.Hop{}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// PeerOptions tunes a TCPPeer's pooled wire protocol. The zero value
// selects the defaults noted per field.
type PeerOptions struct {
	// Timeout is the dial timeout and the per-request deadline (default
	// 10s). Unlike a per-connection deadline, it re-arms for every
	// request, so long-lived pooled sessions never time out while healthy
	// traffic flows.
	Timeout time.Duration
	// PoolSize bounds the idle persistent sessions retained per peer
	// (default 2). Negative disables reuse entirely: every request dials
	// and closes its own connection (the pre-pool behaviour, kept for
	// comparison benchmarks).
	PoolSize int
	// MaxPeelRounds caps the peel-back batches per diverged shard in one
	// anti-entropy conversation; a shard that needs more sends the
	// conversation to a full database swap (default 32).
	MaxPeelRounds int
	// Codec is unused: there is one wire format. The field stays so
	// callers that set "binary" keep compiling.
	Codec string
	// UDP enables the single-datagram fast path for rumor pushes (udp.go).
	// Pushes that exceed the datagram budget, or that get no response
	// within UDPTimeout after UDPRetries resends, fall back to pooled TCP.
	UDP bool
	// UDPTimeout bounds one datagram attempt (default 300ms).
	UDPTimeout time.Duration
	// UDPRetries is the number of resends after the first attempt before
	// falling back (default 2).
	UDPRetries int
	// UDPBudget caps the datagram size for the fast path (default 1200
	// bytes, a conservative single-MTU figure).
	UDPBudget int
	// Stats, when set, receives pool and wire-traffic accounting; share
	// one WireStats across all peers of a process.
	Stats *WireStats
	// Digests, when set, is the calling node's cluster-digest directory:
	// anti-entropy and rumor-pull conversations piggyback its Share() and
	// merge what the peer sends back. Nil disables the piggyback.
	Digests *cluster.Directory
}

// Defaults for PeerOptions zero values.
const (
	defaultPeerTimeout   = 10 * time.Second
	defaultPoolSize      = 2
	defaultMaxPeelRounds = 32
)

// shardRepairWorkers bounds the diverged shards repaired concurrently
// during one conversation. Each worker runs its own pooled session, so the
// effective parallelism is also bounded by PoolSize plus overflow dials.
const shardRepairWorkers = 4

func (o PeerOptions) withDefaults() PeerOptions {
	if o.Timeout <= 0 {
		o.Timeout = defaultPeerTimeout
	}
	if o.PoolSize == 0 {
		o.PoolSize = defaultPoolSize
	}
	if o.MaxPeelRounds <= 0 {
		o.MaxPeelRounds = defaultMaxPeelRounds
	}
	if o.UDPTimeout <= 0 {
		o.UDPTimeout = defaultUDPTimeout
	}
	if o.UDPRetries <= 0 {
		o.UDPRetries = defaultUDPRetries
	}
	if o.UDPBudget <= 0 {
		o.UDPBudget = defaultUDPBudget
	}
	return o
}

// TCPPeer is a node.Peer implemented over the pooled wire protocol above,
// with an optional UDP fast path for rumor pushes. All methods are safe
// for concurrent use; concurrent requests each check a session out of the
// pool (dialing extras as needed).
type TCPPeer struct {
	id   timestamp.SiteID
	addr string
	opts PeerOptions
	pool *pool

	udpOnce sync.Once
	udp     *udpClient // nil until first fast-path push, or on dial failure
}

var _ node.Peer = (*TCPPeer)(nil)

// NewTCPPeer addresses a remote replica with default options. The caller
// supplies the remote site ID (the membership list carries IDs alongside
// addresses).
func NewTCPPeer(id timestamp.SiteID, addr string) *TCPPeer {
	return NewTCPPeerWith(id, addr, PeerOptions{})
}

// NewTCPPeerWith addresses a remote replica with explicit options.
func NewTCPPeerWith(id timestamp.SiteID, addr string, opts PeerOptions) *TCPPeer {
	opts = opts.withDefaults()
	return &TCPPeer{
		id:   id,
		addr: addr,
		opts: opts,
		pool: newPool(addr, opts.PoolSize, opts.Timeout, opts.Stats),
	}
}

// ID implements node.Peer.
func (p *TCPPeer) ID() timestamp.SiteID { return p.id }

// Addr returns the remote address.
func (p *TCPPeer) Addr() string { return p.addr }

// Close releases the peer's pooled connections and the fast-path socket.
// The peer remains usable; subsequent requests dial fresh TCP sessions
// (the UDP socket is not re-dialed).
func (p *TCPPeer) Close() error {
	p.pool.close()
	p.udpOnce.Do(func() {}) // no fast path after Close
	if p.udp != nil {
		p.udp.close()
	}
	return nil
}

// fastPath returns the peer's UDP client, dialing it on first use; nil
// when the fast path is disabled or its socket cannot be set up.
func (p *TCPPeer) fastPath() *udpClient {
	if !p.opts.UDP {
		return nil
	}
	p.udpOnce.Do(func() {
		c, err := dialUDP(p.addr, p.opts.UDPBudget, p.opts.UDPTimeout, p.opts.UDPRetries, p.opts.Stats)
		if err == nil {
			p.udp = c
		}
	})
	return p.udp
}

// wireCall bundles one request/response pair plus the scratch a single-
// entry mail needs, pooled so steady-state calls allocate nothing.
type wireCall struct {
	req               request
	resp              response
	bytesOut, bytesIn int64
	entryBuf          [1]store.Entry
	hopBuf            [1]trace.Hop
	vecBuf            []uint64 // round-0 shard-vector scratch
}

var wireCallPool = sync.Pool{New: func() any { return new(wireCall) }}

// setVector puts local's comparison figures as of cut on c.req: the
// per-shard vector, built in c's scratch, and its XOR fold as the global
// checksum. It returns the vector.
func (c *wireCall) setVector(local *store.Store, cut, tau1 int64) []uint64 {
	vec := local.AppendChecksumVectorAt(c.vecBuf[:0], cut, tau1)
	c.vecBuf = vec[:0]
	c.req.Vector, c.req.Checksum = vec, 0
	for _, sum := range vec {
		c.req.Checksum ^= sum
	}
	return vec
}

func getWireCall() *wireCall { return wireCallPool.Get().(*wireCall) }

// putWireCall clears the call before pooling it so no request payload (or
// key/value memory) stays pinned. Response slices handed out to callers
// are safe: every decode allocates fresh ones.
func putWireCall(c *wireCall) {
	c.req = request{}
	c.resp = response{}
	c.bytesOut, c.bytesIn = 0, 0
	c.entryBuf[0] = store.Entry{}
	c.hopBuf[0] = trace.Hop{}
	c.vecBuf = c.vecBuf[:0]
	wireCallPool.Put(c)
}

// call runs c's request over the pool, accumulating framed bytes moved and
// surfacing remote errors.
func (p *TCPPeer) call(c *wireCall) error {
	o, i, err := p.pool.roundTrip(&c.req, &c.resp)
	c.bytesOut += o
	c.bytesIn += i
	if err != nil {
		return fmt.Errorf("transport: %s: %w", p.addr, err)
	}
	if c.resp.Err != "" {
		return fmt.Errorf("transport: %s: remote error: %s", p.addr, c.resp.Err)
	}
	return nil
}

// Mail implements node.Peer. The entry and its envelope ride the pooled
// call's scratch arrays, so untraced mail allocates nothing client-side.
func (p *TCPPeer) Mail(e store.Entry, hop trace.Hop) error {
	c := getWireCall()
	defer putWireCall(c)
	c.entryBuf[0] = e
	c.req = request{Kind: reqMail, Entries: c.entryBuf[:1]}
	if hop.Valid {
		c.hopBuf[0] = hop
		c.req.Hops = c.hopBuf[:1]
	}
	return p.call(c)
}

// MailBatch implements node.BatchMailer: one outbox drain rides one
// reqMailBatch frame.
func (p *TCPPeer) MailBatch(b node.MailBatch) error {
	entries, hops := b.Entries, b.Hops
	if len(entries) == 0 {
		return nil
	}
	if len(entries) == 1 {
		return p.Mail(entries[0], hopAt(hops, 0))
	}
	c := getWireCall()
	defer putWireCall(c)
	c.req = request{
		Kind:            reqMailBatch,
		Entries:         entries,
		Hops:            hops,
		MailQueuedNanos: b.QueuedNanos,
		MailCoalesced:   int64(b.Coalesced),
	}
	if err := p.call(c); err != nil {
		return err
	}
	p.opts.Stats.noteMailBatch(len(entries))
	return nil
}

// PushRumors implements node.Peer. Small pushes try the UDP fast path
// first (when enabled), falling back to pooled TCP on oversize, loss, or
// timeout.
func (p *TCPPeer) PushRumors(entries []store.Entry, hops []trace.Hop) ([]bool, error) {
	c := getWireCall()
	defer putWireCall(c)
	c.req = request{Kind: reqPushRumors, Entries: entries, Hops: hops}
	if u := p.fastPath(); u != nil {
		if u.roundTrip(&c.req, &c.resp) {
			if c.resp.Err != "" {
				return nil, fmt.Errorf("transport: %s: remote error: %s", p.addr, c.resp.Err)
			}
			return c.resp.Needed, nil
		}
		p.opts.Stats.noteUDPFallback()
	}
	if err := p.call(c); err != nil {
		return nil, err
	}
	return c.resp.Needed, nil
}

// PullRumors implements node.Peer. When the cluster observatory is on,
// the pull carries the local digest view out and merges the peer's back.
func (p *TCPPeer) PullRumors() ([]store.Entry, []trace.Hop, error) {
	c := getWireCall()
	defer putWireCall(c)
	c.req = request{Kind: reqPullRumors, Digests: p.opts.Digests.Share()}
	if err := p.call(c); err != nil {
		return nil, nil, err
	}
	p.opts.Digests.Merge(c.resp.Digests)
	return c.resp.Entries, c.resp.Hops, nil
}

// Checksum implements node.Peer.
func (p *TCPPeer) Checksum(tau1 int64) (uint64, error) {
	c := getWireCall()
	defer putWireCall(c)
	c.req = request{Kind: reqChecksum, Tau1: tau1}
	if err := p.call(c); err != nil {
		return 0, err
	}
	return c.resp.Checksum, nil
}

// AntiEntropy implements node.Peer: the §1.3 checksum exchange over the
// wire, compared as of a cut. Round 0 fixes the cut at this replica's
// clock reading and swaps checksums over the entries stamped at or before
// it, plus the per-shard vectors; agreeing sums end the conversation with
// nothing shipped. On mismatch only the diverged shards peel back
// newest-first from the cut in reverse-timestamp batches, re-comparing the
// shard checksums at the cut after every batch and stopping as soon as
// they agree — O(δ) entries shipped for δ differing keys. Writes stamped
// after the cut are left to mail, rumors and the next conversation. Only
// when a shard has not reconciled within MaxPeelRounds batches does the
// conversation degrade to the full swap. cfg.Tau and cfg.Strategy do not
// apply here: the wire path ships no recent-update list and always runs
// this scheme.
func (p *TCPPeer) AntiEntropy(cfg core.ResolveConfig, local *store.Store, tr *trace.Tracer) (core.ExchangeStats, error) {
	var st core.ExchangeStats
	c := getWireCall()
	defer putWireCall(c)

	cut := local.Now()
	c.req = request{
		Kind:    reqSync,
		From:    local.Site(),
		Now:     cut,
		Tau1:    cfg.Tau1,
		Digests: p.opts.Digests.Share(),
	}
	vec := c.setVector(local, cut, cfg.Tau1)
	sum := c.req.Checksum
	if err := p.call(c); err != nil {
		return st, err
	}
	p.opts.Digests.Merge(c.resp.Digests)
	st.ChecksumsCompared++
	if c.resp.Checksum == sum {
		p.finishExchange(c, &st)
		return st, nil
	}

	// Checksums disagree: repair only the diverged shards, in parallel.
	// The repair workers capture the stats pointer, which would force st
	// itself onto the heap for every conversation — including the
	// allocation-free in-sync fast path above. Hand them a copy that only
	// escapes on this (already allocating) mismatch path.
	sv := st
	done, err := p.shardRepair(cfg, local, tr, cut, vec, c, &sv)
	if err != nil {
		return sv, err
	}
	if !done {
		// Capped last resort: a shard spent its peel budget and the
		// replicas still disagree — swap full live databases in one round
		// trip. sv keeps whatever the abandoned narrow attempt repaired.
		p.opts.Stats.noteShardVecDowngrade()
		sv.FullCompare = true
		now := local.Now()
		full := local.LiveSnapshot(now, cfg.Tau1)
		c.req = request{
			Kind: reqFullSync, From: local.Site(), Entries: full,
			Hops: tr.Envelopes(full), Now: now, Tau1: cfg.Tau1,
		}
		if err := p.call(c); err != nil {
			return sv, err
		}
		sv.EntriesSent += len(full)
		p.applyReceived(local, c.resp.Entries, c.resp.Hops, trace.MechAntiEntropy, now, &sv)
	}
	p.finishExchange(c, &sv)
	return sv, nil
}

// peelBatchSize is the configured peel batch, or core's default.
func peelBatchSize(cfg core.ResolveConfig) int {
	if cfg.BatchSize > 0 {
		return cfg.BatchSize
	}
	return core.DefaultPeelBatch
}

// shardRepairPasses bounds the vector comparisons of one conversation,
// round 0's included. Writes past the cut cannot move its target, with one
// exception: a write that overwrites a key older than the cut drops the
// key from the writer's cut view at once but from a peer's only when the
// mail lands. A comparison can catch a shard in that window, so a shard
// that differs again is repaired again, and a conversation that still
// differs after the last pass ends there: every shard it found diverged
// has agreed at the cut at least once, and the next conversation's later
// cut covers the churn.
const shardRepairPasses = 3

// shardRepair repairs a conversation whose round 0 disagreed (c.resp
// answers the vector vec): only the diverged shards are peeled from the
// cut — each confined to one lock stripe on both sides — by a bounded pool
// of workers over concurrent pooled sessions, then every shard is compared
// again at the cut, for up to shardRepairPasses passes. done=false with a
// nil error means a shard ran out of its peel budget and the conversation
// needs the full swap. c accumulates the byte counters of every session
// the repair used.
func (p *TCPPeer) shardRepair(cfg core.ResolveConfig, local *store.Store, tr *trace.Tracer, cut int64, vec []uint64, c *wireCall, st *core.ExchangeStats) (done bool, err error) {
	batch := peelBatchSize(cfg)
	repaired := 0
	for pass := 1; ; pass++ {
		if len(c.resp.Vector) != store.Shards {
			return false, fmt.Errorf("transport: %s: shard vector has %d sums, want %d", p.addr, len(c.resp.Vector), store.Shards)
		}
		var diverged []int
		for i, sum := range vec {
			if sum != c.resp.Vector[i] {
				diverged = append(diverged, i)
			}
		}
		if ok, err := p.repairShards(cfg, local, tr, cut, diverged, batch, c, st); !ok {
			return false, err
		}
		repaired += len(diverged)
		st.ShardsRepaired += len(diverged)

		// Recompare every shard at the cut; a disagreeing peer answers
		// with its vector for the next pass.
		c.req = request{Kind: reqChecksum, Now: cut, Tau1: cfg.Tau1}
		vec = c.setVector(local, cut, cfg.Tau1)
		sum := c.req.Checksum
		if err := p.call(c); err != nil {
			return false, err
		}
		st.ChecksumsCompared++
		if c.resp.Checksum == sum {
			p.opts.Stats.noteShardVec(repaired)
			return true, nil
		}
		if pass == shardRepairPasses {
			return true, nil
		}
	}
}

// repairShards peels the diverged shards in parallel over at most
// shardRepairWorkers pooled sessions. ok=false with a nil error means a
// shard could not be finished within its peel budget.
func (p *TCPPeer) repairShards(cfg core.ResolveConfig, local *store.Store, tr *trace.Tracer, cut int64, diverged []int, batch int, c *wireCall, st *core.ExchangeStats) (bool, error) {
	var (
		next      atomic.Int64
		exhausted atomic.Bool
		mu        sync.Mutex // guards st, c's byte counters, and the trace.Tracer handoff
		firstErr  error
		wg        sync.WaitGroup
	)
	for w := 0; w < min(shardRepairWorkers, len(diverged)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(diverged) || exhausted.Load() || func() bool { mu.Lock(); defer mu.Unlock(); return firstErr != nil }() {
					return
				}
				err := p.repairShard(cfg, local, tr, diverged[i], cut, batch, &mu, c, st)
				switch {
				case err == nil:
				case errors.Is(err, errPeelBudget):
					exhausted.Store(true)
				default:
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr == nil && !exhausted.Load(), firstErr
}

// errPeelBudget signals that one shard's repair could not finish within
// the peel budget; the conversation falls back to the full swap.
var errPeelBudget = errors.New("transport: shard peel budget exhausted")

// shardProbeBatch is the opening batch size of a shard repair (it ramps ×4
// per round up to the configured BatchSize).
const shardProbeBatch = 8

// repairShard reconciles one diverged shard: both sides peel that shard's
// slice of the timestamp index in reverse order from the cut, re-comparing
// the shard checksum at the cut after every batch. Runs on a worker
// goroutine; all shared state (stats, byte aggregation, tracer envelopes)
// is touched under mu.
func (p *TCPPeer) repairShard(cfg core.ResolveConfig, local *store.Store, tr *trace.Tracer, shard int, cut int64, batch int, mu *sync.Mutex, agg *wireCall, st *core.ExchangeStats) error {
	c := getWireCall()
	defer func() {
		mu.Lock()
		agg.bytesOut += c.bytesOut
		agg.bytesIn += c.bytesIn
		mu.Unlock()
		putWireCall(c)
	}()

	// The expected divergence inside one shard is δ/S — usually a couple
	// of entries, usually recent. Start with a small probe batch and ramp
	// toward the configured size, so shallow per-shard divergence costs
	// O(δ) on the wire instead of a full batch each way.
	b := min(batch, shardProbeBatch)
	localBound, remoteBound := store.CutBound(cut), store.CutBound(cut)
	localMore, remoteMore := true, true
	var back []store.Entry // entries past the cut the peer showed it lacks
	for round := 0; round < p.opts.MaxPeelRounds; round++ {
		mine := back
		if localMore {
			mine, localBound, localMore = local.PeelBatchShard(shard, localBound, b, cut, cfg.Tau1)
			mine = append(mine, back...)
		}
		mu.Lock()
		hops := tr.Envelopes(mine)
		mu.Unlock()
		c.req = request{
			Kind:    reqPeelBackShard,
			From:    local.Site(),
			Entries: mine,
			Hops:    hops,
			Bound:   remoteBound,
			Limit:   b,
			Now:     cut,
			Tau1:    cfg.Tau1,
			Shard:   shard,
		}
		b = min(b*4, batch)
		if err := p.call(c); err != nil {
			return err
		}
		remoteBound, remoteMore = c.resp.Bound, c.resp.More
		mu.Lock()
		st.EntriesSent += len(mine)
		back = p.applyReceived(local, c.resp.Entries, c.resp.Hops, trace.MechPeelBack, cut, st)
		st.ChecksumsCompared++
		mu.Unlock()
		if local.ChecksumShardAt(shard, cut, cfg.Tau1) == c.resp.Checksum {
			return nil
		}
		if !localMore && !remoteMore && len(back) == 0 {
			// Shard walks exhausted; residual skew is dormant-certificate
			// divergence the terminal recompare will adjudicate.
			return nil
		}
	}
	return fmt.Errorf("%w: shard %d", errPeelBudget, shard)
}

// finishExchange attributes one completed anti-entropy conversation to the
// peer's stats.
func (p *TCPPeer) finishExchange(c *wireCall, st *core.ExchangeStats) {
	p.opts.Stats.noteExchange(st.EntriesSent, st.EntriesReceived, c.bytesOut, c.bytesIn)
}

// applyReceived merges entries the peer shipped into the local store,
// attributing traffic and repairs to the exchange stats. hops are the
// peer's provenance envelopes (nil when it does not trace); each applied
// entry becomes a Repair so the caller can stamp causal hop spans. It
// returns the local entries past cut that supersede stale ones the peer
// shipped, for the next request to carry back.
func (p *TCPPeer) applyReceived(local *store.Store, entries []store.Entry, hops []trace.Hop, mech trace.Mechanism, cut int64, st *core.ExchangeStats) []store.Entry {
	var back []store.Entry
	for i, e := range entries {
		st.EntriesReceived++
		if !local.Apply(e).Changed() {
			back = appendSupersedingPastCut(back, local, e, cut)
			continue
		}
		st.EntriesApplied++
		st.AppliedKeys = append(st.AppliedKeys, e.Key)
		if st.AppliedBySite == nil {
			st.AppliedBySite = make(map[timestamp.SiteID][]string)
		}
		st.AppliedBySite[local.Site()] = append(st.AppliedBySite[local.Site()], e.Key)
		senderHop := trace.HopUnknown
		if h := hopAt(hops, i); h.Valid {
			senderHop = h.Count
		}
		st.Repairs = append(st.Repairs, core.Repair{
			Site: local.Site(), Parent: p.id,
			Key: e.Key, Stamp: e.Stamp,
			Mech: mech, SenderHop: senderHop,
		})
	}
	return back
}
