package transport

import (
	"encoding/binary"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// UDP rumor fast path. A small rumor push is one request/response pair
// with a payload of a few hundred bytes — paying a pooled TCP round trip
// (framing, ACK clocking, head-of-line blocking behind an anti-entropy
// conversation) for it is pure overhead. Instead, pushes that fit in a
// single datagram travel over UDP: each request carries a MsgID, the
// client writes the datagram and reads responses off the connected socket
// until the echoed MsgID matches (stale or duplicate responses from
// earlier attempts are dropped on the floor). Round trips are serialized
// per client, which keeps the path allocation-free and saves the goroutine
// handoff a shared read loop would cost. Loss is handled by per-message
// retry under a read deadline; when the retries are spent — or the push
// does not fit the datagram budget — the push transparently falls back to
// the pooled TCP path, so a lost datagram or a stalled socket can never
// wedge the rumor loop. Anti-entropy, peel-back, and oversized payloads
// always use TCP.
//
// Datagram layout (both directions):
//
//	[0..1]  magic 'E','U'
//	[2]     wireVersion (frame.go), shared with the TCP hello
//	[3]     type: 0 request, 1 response
//	[4..11] MsgID, big-endian
//	[12..]  body: the request/response encoding of codec.go
//
// Retried pushes are idempotent merges, but a retry whose first copy was
// applied (response lost) reports needed=false for entries the peer did in
// fact need — the same once-retried semantics the pooled TCP path has, and
// harmless to the rumor counters.

const (
	udpTypeRequest  = 0
	udpTypeResponse = 1
	udpHeaderLen    = 12
	// udpReadBuf bounds a received datagram; responses above it are never
	// generated (the request budget is far smaller).
	udpReadBuf = 64 << 10
)

// UDP fast-path defaults (see PeerOptions).
const (
	defaultUDPBudget  = 1200 // conservative single-MTU datagram budget
	defaultUDPTimeout = 300 * time.Millisecond
	defaultUDPRetries = 2
	// After udpDownThreshold consecutive failures the fast path turns
	// itself off and only probes every udpProbeEvery-th push, so a peer
	// with no UDP service costs one timeout per probe instead of one per
	// push.
	udpDownThreshold = 3
	udpProbeEvery    = 16
)

// udpMsgID issues process-wide unique message IDs, seeded randomly so IDs
// do not collide across client restarts talking to the same server.
var udpMsgID atomic.Uint64

func init() {
	udpMsgID.Store(rand.Uint64())
}

// udpClient is the fast-path endpoint a TCPPeer holds toward one remote.
// All methods are safe for concurrent use; round trips serialize on mu.
type udpClient struct {
	conn    *net.UDPConn
	stats   *WireStats
	budget  int
	timeout time.Duration
	retries int

	mu    sync.Mutex // serializes round trips; guards the scratch buffers
	dgram []byte
	rbuf  []byte

	closed atomic.Bool
	down   atomic.Int32  // consecutive failed pushes
	skips  atomic.Uint64 // pushes skipped while down, for probing
}

// dialUDP opens a connected UDP socket to addr.
func dialUDP(addr string, budget int, timeout time.Duration, retries int, stats *WireStats) (*udpClient, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	return &udpClient{
		conn:    conn,
		stats:   stats,
		budget:  budget,
		timeout: timeout,
		retries: retries,
		dgram:   make([]byte, 0, budget),
		rbuf:    make([]byte, udpReadBuf),
	}, nil
}

// close shuts the socket down, unblocking any in-flight read.
func (c *udpClient) close() {
	if c.closed.CompareAndSwap(false, true) {
		_ = c.conn.Close()
	}
}

// shouldTry reports whether the fast path is worth attempting: always
// while healthy, and one probe every udpProbeEvery pushes while down.
func (c *udpClient) shouldTry() bool {
	if c.down.Load() < udpDownThreshold {
		return true
	}
	return c.skips.Add(1)%udpProbeEvery == 0
}

// roundTrip sends req as a single datagram and waits for the correlated
// response, retrying on loss. ok=false means the fast path did not
// complete (oversize, socket trouble, or every attempt timed out) and the
// caller should fall back to TCP.
func (c *udpClient) roundTrip(req *request, resp *response) (ok bool) {
	if !c.shouldTry() {
		return false
	}
	if udpHeaderLen+requestWireSize(req) > c.budget {
		c.stats.noteUDPOversize()
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return false
	}
	dgram := append(c.dgram[:0], 'E', 'U', wireVersion, udpTypeRequest,
		0, 0, 0, 0, 0, 0, 0, 0) // MsgID placeholder
	dgram = appendRequest(dgram, req)
	c.dgram = dgram
	if len(dgram) > c.budget {
		c.stats.noteUDPOversize()
		return false
	}

	for attempt := 0; attempt <= c.retries; attempt++ {
		id := udpMsgID.Add(1)
		binary.BigEndian.PutUint64(dgram[4:udpHeaderLen], id)
		if attempt > 0 {
			c.stats.noteUDPRetry()
		}
		if _, err := c.conn.Write(dgram); err != nil {
			break // socket-level trouble: straight to TCP
		}
		c.stats.noteUDPTraffic(int64(len(dgram)), 0)
		if err := c.conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			break
		}
	reading:
		for {
			n, err := c.conn.Read(c.rbuf)
			if err != nil {
				if c.closed.Load() {
					return false
				}
				if ne, isNet := err.(net.Error); isNet && ne.Timeout() {
					break reading // attempt timed out: retry
				}
				// Transient (e.g. ICMP port unreachable surfacing as a
				// read error on a connected socket): keep reading until
				// the deadline.
				continue
			}
			b := c.rbuf[:n]
			if n < udpHeaderLen || b[0] != 'E' || b[1] != 'U' ||
				b[2] != wireVersion || b[3] != udpTypeResponse {
				continue // noise
			}
			if binary.BigEndian.Uint64(b[4:udpHeaderLen]) != id {
				continue // stale response from an earlier attempt
			}
			c.stats.noteUDPTraffic(0, int64(n))
			if err := decodeResponse(b[udpHeaderLen:n], resp); err != nil {
				break reading // corrupt response: treat as loss, retry
			}
			c.down.Store(0)
			c.stats.noteUDPPush()
			return true
		}
	}
	c.down.Add(1)
	return false
}

// serveUDP answers fast-path datagrams on the server's UDP socket. Only
// single-datagram-safe, idempotent request kinds are dispatched; anything
// else is answered with an error so a misconfigured client falls back
// instead of stalling.
func (s *Server) serveUDP(conn *net.UDPConn) {
	defer s.wg.Done()
	buf := make([]byte, udpReadBuf)
	wbuf := make([]byte, 0, 2048)
	var req request
	for {
		n, raddr, err := conn.ReadFromUDP(buf)
		if err != nil {
			if s.closing() {
				return
			}
			continue
		}
		if n < udpHeaderLen || buf[0] != 'E' || buf[1] != 'U' ||
			buf[2] != wireVersion || buf[3] != udpTypeRequest {
			continue
		}
		if err := decodeRequest(buf[udpHeaderLen:n], &req); err != nil {
			continue // garbage body: silent drop, the client will retry
		}
		var resp response
		switch req.Kind {
		case reqPushRumors, reqChecksum:
			start := time.Now()
			resp = s.dispatch(req)
			if _, observe := s.instruments(); observe != nil {
				observe("udp-"+req.Kind.kindName(), time.Since(start))
			}
		default:
			resp = response{Err: "request kind not served over UDP"}
		}
		wbuf = append(wbuf[:0], 'E', 'U', wireVersion, udpTypeResponse)
		wbuf = append(wbuf, buf[4:udpHeaderLen]...) // echo MsgID
		wbuf = appendResponse(wbuf, &resp)
		if len(wbuf) <= udpReadBuf {
			_, _ = conn.WriteToUDP(wbuf, raddr)
		}
	}
}
