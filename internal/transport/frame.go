package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// The wire protocol is a sequence of length-prefixed frames over one
// long-lived TCP connection: a 4-byte big-endian payload length followed
// by the payload, which is one request or response in the session's
// negotiated codec — the hand-rolled binary encoding of codec.go, or one
// value from a persistent gob stream (the PR 3 format, kept for rollout).
// The frame boundary lets either side bound a peer's allocation before
// reading a byte of payload.
//
// Codec negotiation: a new client opens with a 4-byte hello — the magic
// "EPG" followed by its preferred codec byte — and the server answers with
// the single codec byte both sides will use (the lower of the client's
// preference and the server's ceiling). A legacy client sends no hello;
// since every legal frame header starts with a byte <= 0x04 (the length
// cap is 64 MiB) and 'E' is 0x45, the server can peek the first bytes and
// fall back to a plain gob session without consuming them. A client
// configured for legacy mode skips the hello the same way, which keeps it
// wire-compatible with pre-negotiation daemons.

// maxWireBytes bounds a single frame; a misbehaving peer cannot make the
// decoder allocate without bound.
const maxWireBytes = 64 << 20

// frameHeaderLen is the fixed frame header size (big-endian uint32 payload
// length).
const frameHeaderLen = 4

// helloMagic opens the codec-negotiation hello. Its first byte must be
// distinguishable from a legal frame header's first byte (<= 0x04).
var helloMagic = [3]byte{'E', 'P', 'G'}

// Typed wire errors. Callers can errors.Is against these to distinguish
// protocol violations from ordinary network failures.
var (
	// ErrFrameTooLarge reports a frame whose declared payload exceeds the
	// session's limit, in either direction.
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	// ErrTruncatedFrame reports a frame that ended early: the header (or a
	// length inside the payload) promised more bytes than arrived.
	ErrTruncatedFrame = errors.New("transport: truncated frame")
	// ErrFrameGarbage reports a frame whose payload was malformed or not
	// fully consumed by its decoded value — the streams have diverged.
	ErrFrameGarbage = errors.New("transport: trailing garbage in frame")
)

// frameBuffer feeds one frame's payload to the session's persistent gob
// decoder. Refilled per frame; Read never crosses a frame boundary.
type frameBuffer struct {
	buf []byte
	pos int
}

func (f *frameBuffer) Read(p []byte) (int, error) {
	if f.pos >= len(f.buf) {
		return 0, io.EOF
	}
	n := copy(p, f.buf[f.pos:])
	f.pos += n
	return n, nil
}

// ReadByte makes frameBuffer an io.ByteReader so gob reads it directly
// instead of wrapping it in a read-ahead bufio.Reader — read-ahead would
// silently drain bytes past the decoded value and break both the drained
// check and frame alignment.
func (f *frameBuffer) ReadByte() (byte, error) {
	if f.pos >= len(f.buf) {
		return 0, io.EOF
	}
	b := f.buf[f.pos]
	f.pos++
	return b, nil
}

func (f *frameBuffer) load(payload []byte) {
	f.buf = payload
	f.pos = 0
}

func (f *frameBuffer) drained() bool { return f.pos >= len(f.buf) }

// session is one framed stream over a TCP connection, used by both the
// client pool and the server handler. Not safe for concurrent use: callers
// hold a session exclusively for the duration of a request.
type session struct {
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	codec byte // codecGob .. codecBinaryMail; fixed after the handshake

	// Gob machinery, built lazily so binary sessions never pay for it.
	enc    *gob.Encoder
	encBuf bytes.Buffer // staging area: one Encode call = one frame
	dec    *gob.Decoder
	decBuf frameBuffer

	wbuf    []byte // binary encode scratch: [4-byte header | payload]
	payload []byte // reusable frame payload backing array
	// vecScratch backs decoded request vectors (server side): a request's
	// vector lives only while it is dispatched.
	vecScratch []uint64

	header [frameHeaderLen]byte
	limit  int // per-frame payload cap

	bytesOut, bytesIn int64 // cumulative traffic on this session
}

// newSession wraps conn with the given codec. limit <= 0 selects
// maxWireBytes.
func newSession(conn net.Conn, limit int, codec byte) *session {
	if limit <= 0 {
		limit = maxWireBytes
	}
	return &session{
		conn:  conn,
		br:    bufio.NewReader(conn),
		bw:    bufio.NewWriter(conn),
		codec: codec,
		limit: limit,
	}
}

// clientHandshake sends the codec hello and adopts the server's choice.
// deadline bounds the whole exchange; zero leaves the connection unarmed.
func (s *session) clientHandshake(prefer byte, deadline time.Time) error {
	s.setDeadline(deadline)
	defer s.setDeadline(time.Time{})
	hello := [4]byte{helloMagic[0], helloMagic[1], helloMagic[2], prefer}
	if _, err := s.bw.Write(hello[:]); err != nil {
		return fmt.Errorf("transport: send codec hello: %w", err)
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("transport: send codec hello: %w", err)
	}
	chosen, err := s.br.ReadByte()
	if err != nil {
		return fmt.Errorf("transport: read codec choice: %w", err)
	}
	if chosen < codecGob || chosen > codecBinaryMail || chosen > prefer {
		return fmt.Errorf("transport: server chose unexpected codec %d: %w", chosen, ErrFrameGarbage)
	}
	s.codec = chosen
	s.bytesOut += int64(len(hello))
	s.bytesIn++
	return nil
}

// serverHandshake inspects the first bytes of a fresh connection. A hello
// negotiates a codec (at most maxCodec) and is answered; anything else is
// left unconsumed and the session proceeds as legacy gob. The caller's
// read deadline bounds the wait for the first bytes.
func (s *session) serverHandshake(maxCodec byte) error {
	head, err := s.br.Peek(len(helloMagic))
	if err != nil {
		return err // closed or died before a first request
	}
	if head[0] != helloMagic[0] || head[1] != helloMagic[1] || head[2] != helloMagic[2] {
		s.codec = codecGob // legacy stream: bytes stay queued for readMsg
		return nil
	}
	if _, err := s.br.Discard(len(helloMagic)); err != nil {
		return err
	}
	prefer, err := s.br.ReadByte()
	if err != nil {
		return fmt.Errorf("transport: read codec hello: %w", ErrTruncatedFrame)
	}
	// min(client preference, server ceiling), clamped to the known range —
	// a v2 client asking for 2 gets 2 from a v4 server, and a future v9
	// client gets the highest version this server speaks.
	chosen := min(prefer, maxCodec)
	if chosen < codecGob {
		chosen = codecGob
	}
	if chosen > codecBinaryMail {
		chosen = codecBinaryMail
	}
	if err := s.bw.WriteByte(chosen); err != nil {
		return fmt.Errorf("transport: answer codec hello: %w", err)
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("transport: answer codec hello: %w", err)
	}
	s.codec = chosen
	s.bytesIn += int64(len(helloMagic)) + 1
	s.bytesOut++
	return nil
}

// withDigests reports whether this session's frames carry the trailing
// cluster-digest section (codecBinaryDigest and up; gob carries digests as
// an ordinary struct field that old receivers simply ignore).
func (s *session) withDigests() bool { return codecHasDigests(s.codec) }

// withShards reports whether this session's frames carry the trailing
// shard-vector section and the peer understands the shard-scoped request
// kinds (codecBinaryShard and up).
func (s *session) withShards() bool { return codecHasShards(s.codec) }

// withMail reports whether this session may carry batched mail requests
// and their trailing telemetry section (codecBinaryMail and up).
func (s *session) withMail() bool { return codecHasMail(s.codec) }

// writeRequest ships req as one frame in the session's codec.
func (s *session) writeRequest(req *request) error {
	if s.codec >= codecBinary {
		s.wbuf = appendRequest(s.binaryFrame(), req, s.codec)
		return s.flushBinaryFrame()
	}
	return s.writeMsg(req)
}

// writeResponse ships resp as one frame in the session's codec.
func (s *session) writeResponse(resp *response) error {
	if s.codec >= codecBinary {
		s.wbuf = appendResponse(s.binaryFrame(), resp, s.codec)
		return s.flushBinaryFrame()
	}
	return s.writeMsg(resp)
}

// readRequest reads one frame into req. Every field of req is overwritten.
func (s *session) readRequest(req *request) error {
	if s.codec >= codecBinary {
		payload, err := s.readFrame()
		if err != nil {
			return err
		}
		req.Vector = s.vecScratch
		if err := decodeRequest(payload, req, s.codec); err != nil {
			return fmt.Errorf("transport: decode request: %w", err)
		}
		if cap(req.Vector) > cap(s.vecScratch) {
			s.vecScratch = req.Vector[:0]
		}
		return nil
	}
	*req = request{}
	return s.readMsg(req)
}

// readResponse reads one frame into resp. Every field of resp is
// overwritten.
func (s *session) readResponse(resp *response) error {
	if s.codec >= codecBinary {
		payload, err := s.readFrame()
		if err != nil {
			return err
		}
		if err := decodeResponse(payload, resp, s.codec); err != nil {
			return fmt.Errorf("transport: decode response: %w", err)
		}
		return nil
	}
	*resp = response{}
	return s.readMsg(resp)
}

// binaryFrame resets the encode scratch to an empty payload preceded by
// header space.
func (s *session) binaryFrame() []byte {
	if cap(s.wbuf) < frameHeaderLen {
		s.wbuf = make([]byte, frameHeaderLen, 512)
	}
	return s.wbuf[:frameHeaderLen]
}

// flushBinaryFrame stamps the header over s.wbuf and writes the frame in
// one call.
func (s *session) flushBinaryFrame() error {
	payload := len(s.wbuf) - frameHeaderLen
	if payload > s.limit {
		return fmt.Errorf("transport: outgoing frame of %d bytes: %w", payload, ErrFrameTooLarge)
	}
	binary.BigEndian.PutUint32(s.wbuf[:frameHeaderLen], uint32(payload))
	if _, err := s.bw.Write(s.wbuf); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("transport: flush frame: %w", err)
	}
	s.bytesOut += int64(len(s.wbuf))
	return nil
}

// readFrame reads one frame and returns its payload, valid until the next
// readFrame on this session.
func (s *session) readFrame() ([]byte, error) {
	if _, err := io.ReadFull(s.br, s.header[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("transport: read frame header: %w", ErrTruncatedFrame)
		}
		return nil, err // clean EOF or network error
	}
	n := int(binary.BigEndian.Uint32(s.header[:]))
	if n > s.limit {
		return nil, fmt.Errorf("transport: incoming frame of %d bytes: %w", n, ErrFrameTooLarge)
	}
	if cap(s.payload) < n {
		s.payload = make([]byte, n)
	}
	payload := s.payload[:n]
	if _, err := io.ReadFull(s.br, payload); err != nil {
		return nil, fmt.Errorf("transport: read frame payload: %w", ErrTruncatedFrame)
	}
	s.bytesIn += int64(frameHeaderLen + n)
	return payload, nil
}

// writeMsg encodes v on the persistent gob stream and ships it as one
// frame. The encode buffer and bufio writer are reused across calls, so a
// steady-state request allocates no frame machinery.
func (s *session) writeMsg(v any) error {
	if s.enc == nil {
		s.enc = gob.NewEncoder(&s.encBuf)
	}
	s.encBuf.Reset()
	if err := s.enc.Encode(v); err != nil {
		return fmt.Errorf("transport: encode: %w", err)
	}
	payload := s.encBuf.Bytes()
	if len(payload) > s.limit {
		return fmt.Errorf("transport: outgoing frame of %d bytes: %w", len(payload), ErrFrameTooLarge)
	}
	binary.BigEndian.PutUint32(s.header[:], uint32(len(payload)))
	if _, err := s.bw.Write(s.header[:]); err != nil {
		return fmt.Errorf("transport: write frame header: %w", err)
	}
	if _, err := s.bw.Write(payload); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("transport: flush frame: %w", err)
	}
	s.bytesOut += int64(frameHeaderLen + len(payload))
	return nil
}

// readMsg reads one frame and decodes it into v through the persistent gob
// stream. The payload buffer is reused across calls.
func (s *session) readMsg(v any) error {
	payload, err := s.readFrame()
	if err != nil {
		return err
	}
	if s.dec == nil {
		s.dec = gob.NewDecoder(&s.decBuf)
	}
	s.decBuf.load(payload)
	if err := s.dec.Decode(v); err != nil {
		return fmt.Errorf("transport: decode: %w", err)
	}
	if !s.decBuf.drained() {
		return ErrFrameGarbage
	}
	return nil
}

// setDeadline bounds the next request/response pair on the wire; zero
// clears it.
func (s *session) setDeadline(t time.Time) { _ = s.conn.SetDeadline(t) }

// Close closes the underlying connection.
func (s *session) Close() error { return s.conn.Close() }
