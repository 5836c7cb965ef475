package transport

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"epidemic/internal/obs/cluster"
	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// Hand-rolled binary codec for the exchange frames: it writes the
// request/response structs field by field into a buffer the session reuses
// across messages — fixed-width timestamps and checksums, varints for
// counts and clock values, length-prefixed keys and values. A steady-state
// in-sync exchange encodes and decodes without allocating. There is one
// layout (wireVersion, frame.go); every section is always present, and an
// unused one costs a zero byte per count or varint.

// stampWireLen is the fixed wire size of one timestamp.T: 8-byte Time,
// 4-byte Site, 4-byte Seq, all big-endian.
const stampWireLen = 16

// --- append-style encoders ---

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// appendVarint zigzag-encodes a signed value.
func appendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendUint64(b []byte, v uint64) []byte {
	return append(b,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendStamp(b []byte, t timestamp.T) []byte {
	b = appendUint64(b, uint64(t.Time))
	b = appendUint32(b, uint32(t.Site))
	return appendUint32(b, t.Seq)
}

func appendEntries(b []byte, entries []store.Entry) []byte {
	b = appendUvarint(b, uint64(len(entries)))
	for i := range entries {
		e := &entries[i]
		b = appendUvarint(b, uint64(len(e.Key)))
		b = append(b, e.Key...)
		if e.Value == nil {
			// The distinguished NIL of a death certificate, kept distinct
			// from a present-but-empty value.
			b = appendUvarint(b, 0)
		} else {
			b = appendUvarint(b, uint64(len(e.Value))+1)
			b = append(b, e.Value...)
		}
		b = appendStamp(b, e.Stamp)
		b = appendStamp(b, e.Activation)
		b = appendUvarint(b, uint64(len(e.Retention)))
		for _, s := range e.Retention {
			b = appendUint32(b, uint32(s))
		}
	}
	return b
}

func appendHops(b []byte, hops []trace.Hop) []byte {
	b = appendUvarint(b, uint64(len(hops)))
	for _, h := range hops {
		b = appendUint32(b, uint32(h.Parent))
		b = appendUint32(b, uint32(h.Count))
		b = append(b, boolByte(h.Valid))
	}
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// appendFloat64 writes the IEEE-754 bits big-endian.
func appendFloat64(b []byte, v float64) []byte {
	return appendUint64(b, math.Float64bits(v))
}

// appendSummary writes one LatencySummary: count, then the two quantiles
// as fixed-width float bits.
func appendSummary(b []byte, s *cluster.LatencySummary) []byte {
	b = appendUvarint(b, s.Count)
	b = appendFloat64(b, s.P50)
	return appendFloat64(b, s.P99)
}

// appendDigests writes the cluster-digest section: a count then each
// digest field by field. A nil or empty slice costs one zero byte —
// disabled digests are (nearly) free. Field order matches
// (*wireReader).digests.
func appendDigests(b []byte, digests []cluster.Digest) []byte {
	b = appendUvarint(b, uint64(len(digests)))
	for i := range digests {
		d := &digests[i]
		b = appendUint32(b, uint32(d.Site))
		b = appendVarint(b, d.Stamp)
		b = appendVarint(b, d.StartedAt)
		b = appendVarint(b, d.StoreKeys)
		b = appendUint64(b, d.Checksum)
		b = appendVarint(b, d.HotRumors)
		b = appendVarint(b, d.Peers)
		b = appendVarint(b, d.Members)
		b = appendVarint(b, d.AERuns)
		b = appendVarint(b, d.RumorRuns)
		b = appendVarint(b, d.UDPPushes)
		b = appendVarint(b, d.UDPFallbacks)
		b = appendFloat64(b, d.Residue)
		b = appendFloat64(b, d.TLastSeconds)
		b = appendVarint(b, d.LastAE)
		b = appendSummary(b, &d.AntiEntropy)
		b = appendSummary(b, &d.Rumor)
	}
	return b
}

// appendVector writes a shard vector: a count then each per-shard checksum
// as fixed 8 bytes. A nil or empty vector costs one zero byte.
func appendVector(b []byte, vec []uint64) []byte {
	b = appendUvarint(b, uint64(len(vec)))
	for _, v := range vec {
		b = appendUint64(b, v)
	}
	return b
}

// appendRequest encodes req after b. Field order matches decodeRequest
// and the request table in DESIGN.md §10.
func appendRequest(b []byte, req *request) []byte {
	b = append(b, byte(req.Kind))
	b = appendUint32(b, uint32(req.From))
	b = appendUint64(b, req.Checksum)
	b = appendVarint(b, req.Now)
	b = appendVarint(b, req.Tau1)
	b = appendStamp(b, req.Bound)
	b = appendVarint(b, int64(req.Limit))
	b = appendEntries(b, req.Entries)
	b = appendHops(b, req.Hops)
	b = appendDigests(b, req.Digests)
	b = appendVarint(b, int64(req.Shard))
	b = appendVarint(b, int64(req.ShardCount))
	b = appendVector(b, req.Vector)
	b = appendVarint(b, req.MailQueuedNanos)
	return appendVarint(b, req.MailCoalesced)
}

// Response flag bits.
const (
	respInSync = 1 << 0
	respMore   = 1 << 1
)

// appendResponse encodes resp after b. Field order matches
// decodeResponse.
func appendResponse(b []byte, resp *response) []byte {
	var flags byte
	if resp.InSync {
		flags |= respInSync
	}
	if resp.More {
		flags |= respMore
	}
	b = append(b, flags)
	b = appendUint64(b, resp.Checksum)
	b = appendStamp(b, resp.Bound)
	// Needed is a packed bitset: length then ceil(n/8) bytes, LSB first.
	b = appendUvarint(b, uint64(len(resp.Needed)))
	var acc, n byte
	for _, need := range resp.Needed {
		if need {
			acc |= 1 << n
		}
		if n++; n == 8 {
			b = append(b, acc)
			acc, n = 0, 0
		}
	}
	if n > 0 {
		b = append(b, acc)
	}
	b = appendEntries(b, resp.Entries)
	b = appendHops(b, resp.Hops)
	b = appendUvarint(b, uint64(len(resp.Err)))
	b = append(b, resp.Err...)
	b = appendDigests(b, resp.Digests)
	b = appendVarint(b, int64(resp.ShardCount))
	return appendVector(b, resp.Vector)
}

// --- cursor-style decoder ---

// wireReader walks one frame payload. The first malformed read latches an
// error; subsequent reads are no-ops returning zero values, so decoders
// can run straight-line and check err once.
type wireReader struct {
	buf []byte
	pos int
	err error
}

func (r *wireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *wireReader) remaining() int { return len(r.buf) - r.pos }

func (r *wireReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail(ErrTruncatedFrame)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrTruncatedFrame) // buffer ended mid-varint
		} else {
			r.fail(ErrFrameGarbage) // > 64 bits: not a value we ever wrote
		}
		return 0
	}
	r.pos += n
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrTruncatedFrame)
		} else {
			r.fail(ErrFrameGarbage)
		}
		return 0
	}
	r.pos += n
	return v
}

// take returns the next n payload bytes without copying; the caller must
// copy anything that outlives the frame.
func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.remaining() {
		r.fail(ErrTruncatedFrame)
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *wireReader) uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *wireReader) uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *wireReader) stamp() timestamp.T {
	return timestamp.T{
		Time: int64(r.uint64()),
		Site: timestamp.SiteID(r.uint32()),
		Seq:  r.uint32(),
	}
}

// count reads a collection length and sanity-checks it against the bytes
// actually left in the frame (each element costs at least minBytes), so a
// forged length can never drive a large allocation.
func (r *wireReader) count(minBytes int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.remaining()/max(minBytes, 1)) {
		r.fail(ErrTruncatedFrame)
		return 0
	}
	return int(v)
}

// Minimum encoded sizes, used to bound collection counts before
// allocating.
const (
	entryMinWire = 2*stampWireLen + 3 // key len + value len + stamps + retention len
	hopWireLen   = 9
	// digestMinWire: 4-byte site + 8-byte checksum + two 8-byte floats +
	// 11 varints of at least one byte + two 17-byte summaries.
	digestMinWire = 4 + 8 + 16 + 11 + 2*17
	// digestMaxWire bounds the same fields with every varint at full
	// width.
	digestMaxWire = 4 + 8 + 16 + 11*binary.MaxVarintLen64 + 2*(binary.MaxVarintLen64+16)
)

func (r *wireReader) entries() []store.Entry {
	n := r.count(entryMinWire)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]store.Entry, n)
	for i := range out {
		e := &out[i]
		e.Key = string(r.take(int(r.uvarint())))
		vlen := r.uvarint()
		if vlen > 0 {
			// Copy: the frame payload buffer is reused by the session.
			v := r.take(int(vlen) - 1)
			if r.err == nil {
				e.Value = append(store.Value(nil), v...)
				if e.Value == nil {
					e.Value = store.Value{} // non-nil empty stays non-nil
				}
			}
		}
		e.Stamp = r.stamp()
		e.Activation = r.stamp()
		if nr := r.count(4); nr > 0 {
			e.Retention = make([]timestamp.SiteID, nr)
			for j := range e.Retention {
				e.Retention[j] = timestamp.SiteID(r.uint32())
			}
		}
		if r.err != nil {
			return nil
		}
	}
	return out
}

func (r *wireReader) hops() []trace.Hop {
	n := r.count(hopWireLen)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]trace.Hop, n)
	for i := range out {
		out[i] = trace.Hop{
			Parent: timestamp.SiteID(r.uint32()),
			Count:  int32(r.uint32()),
			Valid:  r.byte() != 0,
		}
	}
	return out
}

// vector reads a shard-vector section into dst's backing array (nil when
// the section is empty): a count (sanity-checked against the remaining
// bytes at 8 bytes per element, so a forged length never drives a large
// allocation) then that many fixed-width checksums.
func (r *wireReader) vector(dst []uint64) []uint64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	dst = slices.Grow(dst[:0], n)
	for i := 0; i < n; i++ {
		dst = append(dst, r.uint64())
	}
	return dst
}

func (r *wireReader) float64() float64 {
	return math.Float64frombits(r.uint64())
}

func (r *wireReader) summary() cluster.LatencySummary {
	return cluster.LatencySummary{
		Count: r.uvarint(),
		P50:   r.float64(),
		P99:   r.float64(),
	}
}

func (r *wireReader) digests() []cluster.Digest {
	n := r.count(digestMinWire)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]cluster.Digest, n)
	for i := range out {
		d := &out[i]
		d.Site = int32(r.uint32())
		d.Stamp = r.varint()
		d.StartedAt = r.varint()
		d.StoreKeys = r.varint()
		d.Checksum = r.uint64()
		d.HotRumors = r.varint()
		d.Peers = r.varint()
		d.Members = r.varint()
		d.AERuns = r.varint()
		d.RumorRuns = r.varint()
		d.UDPPushes = r.varint()
		d.UDPFallbacks = r.varint()
		d.Residue = r.float64()
		d.TLastSeconds = r.float64()
		d.LastAE = r.varint()
		d.AntiEntropy = r.summary()
		d.Rumor = r.summary()
		if r.err != nil {
			return nil
		}
	}
	return out
}

// finish reports the terminal decode state: a latched error, trailing
// garbage, or success.
func (r *wireReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return ErrFrameGarbage
	}
	return nil
}

// decodeRequest decodes one frame payload into req, overwriting every
// field (so a reused struct never leaks state between messages).
func decodeRequest(payload []byte, req *request) error {
	r := wireReader{buf: payload}
	req.Kind = reqKind(r.byte())
	req.From = timestamp.SiteID(r.uint32())
	req.Checksum = r.uint64()
	req.Now = r.varint()
	req.Tau1 = r.varint()
	req.Bound = r.stamp()
	req.Limit = int(r.varint())
	req.Entries = r.entries()
	req.Hops = r.hops()
	req.Digests = r.digests()
	req.Shard = int(r.varint())
	req.ShardCount = int(r.varint())
	// A vector reuses the target's backing array, so a server session
	// lending one scratch decodes round 0 without allocating.
	req.Vector = r.vector(req.Vector)
	req.MailQueuedNanos = r.varint()
	req.MailCoalesced = r.varint()
	return r.finish()
}

// decodeResponse decodes one frame payload into resp, overwriting every
// field.
func decodeResponse(payload []byte, resp *response) error {
	r := wireReader{buf: payload}
	flags := r.byte()
	resp.InSync = flags&respInSync != 0
	resp.More = flags&respMore != 0
	resp.Checksum = r.uint64()
	resp.Bound = r.stamp()
	// Needed packs 8 bools per byte, so its count check is its own.
	nNeeded := int(r.uvarint())
	if r.err == nil && (nNeeded < 0 || nNeeded > 8*r.remaining()) {
		r.fail(ErrTruncatedFrame)
	}
	resp.Needed = nil
	if r.err == nil && nNeeded > 0 {
		packed := r.take((nNeeded + 7) / 8)
		if r.err == nil {
			resp.Needed = make([]bool, nNeeded)
			for i := range resp.Needed {
				resp.Needed[i] = packed[i/8]&(1<<(i%8)) != 0
			}
		}
	}
	resp.Entries = r.entries()
	resp.Hops = r.hops()
	errLen := r.uvarint()
	resp.Err = string(r.take(int(errLen)))
	resp.Digests = r.digests()
	resp.ShardCount = int(r.varint())
	resp.Vector = r.vector(nil)
	return r.finish()
}

// requestWireSize returns an upper bound on appendRequest's output for
// req — the UDP fast path uses it to decide whether a push fits in one
// datagram without encoding twice.
func requestWireSize(req *request) int {
	n := 1 + 4 + 8 + stampWireLen // Kind, From, Checksum, Bound
	for _, v := range [...]int64{req.Now, req.Tau1, int64(req.Limit), int64(req.Shard),
		int64(req.ShardCount), req.MailQueuedNanos, req.MailCoalesced} {
		n += uvarintLen(uint64(v<<1) ^ uint64(v>>63)) // zigzag, as appendVarint
	}
	n += uvarintLen(uint64(len(req.Entries)))
	for i := range req.Entries {
		e := &req.Entries[i]
		n += uvarintLen(uint64(len(e.Key))) + len(e.Key)
		n += uvarintLen(uint64(len(e.Value))+1) + len(e.Value)
		n += 2 * stampWireLen
		n += uvarintLen(uint64(len(e.Retention))) + 4*len(e.Retention)
	}
	n += uvarintLen(uint64(len(req.Hops))) + hopWireLen*len(req.Hops)
	n += uvarintLen(uint64(len(req.Digests))) + digestMaxWire*len(req.Digests)
	n += uvarintLen(uint64(len(req.Vector))) + 8*len(req.Vector)
	return n
}

func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}
