package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// replyTimeout bounds the wait for any single reply; a replica that stops
// answering fails the run instead of hanging it.
const replyTimeout = 10 * time.Second

// lineConn is one client connection speaking gossipd's line protocol.
type lineConn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
	// readBytes counts reply bytes, subtracted from the replicas' wchar
	// so tx_bytes_per_op counts only replica-to-replica traffic.
	readBytes int64
}

func dialLine(addr string) (*lineConn, error) {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	return &lineConn{c: c, r: bufio.NewReaderSize(c, 64<<10), w: bufio.NewWriterSize(c, 64<<10)}, nil
}

func (l *lineConn) close() { _ = l.c.Close() }

// readLine returns one reply line without its newline. Long replies (KEYS)
// arrive in several buffer fills.
func (l *lineConn) readLine() (string, error) {
	_ = l.c.SetReadDeadline(time.Now().Add(replyTimeout))
	line, err := l.r.ReadSlice('\n')
	if err == nil {
		l.readBytes += int64(len(line))
		return string(line[:len(line)-1]), nil
	}
	if !errors.Is(err, bufio.ErrBufferFull) {
		return "", err
	}
	buf := append([]byte(nil), line...)
	for errors.Is(err, bufio.ErrBufferFull) {
		line, err = l.r.ReadSlice('\n')
		buf = append(buf, line...)
	}
	if err != nil {
		return "", err
	}
	l.readBytes += int64(len(buf))
	return string(buf[:len(buf)-1]), nil
}

func (l *lineConn) send(cmd string) error {
	if _, err := l.w.WriteString(cmd); err != nil {
		return err
	}
	return l.w.WriteByte('\n')
}

func (l *lineConn) flush() error {
	_ = l.c.SetWriteDeadline(time.Now().Add(replyTimeout))
	return l.w.Flush()
}

// roundTrip sends one command and returns its reply.
func (l *lineConn) roundTrip(cmd string) (string, error) {
	if err := l.send(cmd); err != nil {
		return "", err
	}
	if err := l.flush(); err != nil {
		return "", err
	}
	return l.readLine()
}

// opKind is a client operation.
type opKind byte

const (
	opSet opKind = 'S'
	opDel opKind = 'D'
	opGet opKind = 'G'
)

// op is one client request. Values are single printable tokens: the line
// protocol collapses whitespace inside SET values, a defect this benchmark
// does not cover.
type op struct {
	kind opKind
	key  string
	val  string
	// start is when the latency clock starts: the send in a closed loop,
	// the due time in an open loop.
	start time.Time
}

func (o op) line() string {
	switch o.kind {
	case opSet:
		return "SET " + o.key + " " + o.val
	case opDel:
		return "DEL " + o.key
	default:
		return "GET " + o.key
	}
}

// checkReply validates a reply's shape for its op.
func checkReply(o op, reply string) error {
	switch o.kind {
	case opSet, opDel:
		if reply != "OK" {
			return fmt.Errorf("%s: %q", o.line(), reply)
		}
	default:
		if reply != "MISSING" && !strings.HasPrefix(reply, "VALUE ") {
			return fmt.Errorf("%s: %q", o.line(), reply)
		}
	}
	return nil
}

// pipeline runs ops over one connection with up to depth requests in
// flight. next returns the next op (ok=false stops the loop); done is
// called on the reader goroutine for each reply in send order, with err
// set when the request failed. pipeline returns after every sent request
// has been answered or failed.
func pipeline(l *lineConn, depth int, openLoop bool, next func() (op, bool), done func(o op, reply string, err error)) {
	slots := make(chan struct{}, depth) // one token per request in flight
	pending := make(chan op, depth)     // sent, unanswered requests in order
	var wg sync.WaitGroup
	var failed sync.Once
	fail := func() { failed.Do(func() { _ = l.c.Close() }) }
	wg.Add(1)
	go func() {
		defer wg.Done()
		var rerr error
		for o := range pending {
			var reply string
			if rerr == nil {
				reply, rerr = l.readLine()
				if rerr != nil {
					fail()
				}
			}
			done(o, reply, rerr)
			<-slots
		}
	}()
	var werr error
	for werr == nil {
		select {
		case slots <- struct{}{}:
		default:
			if werr = l.flush(); werr != nil {
				break
			}
			slots <- struct{}{}
		}
		if werr != nil {
			break
		}
		o, ok := next()
		if !ok {
			<-slots
			break
		}
		if !openLoop {
			o.start = time.Now()
		}
		pending <- o
		if werr = l.send(o.line()); werr == nil && openLoop {
			werr = l.flush()
		}
	}
	if werr == nil {
		werr = l.flush()
	}
	if werr != nil {
		fail()
	}
	close(pending)
	wg.Wait()
}

// valueFor makes the unique single-token value of write seq on connection
// conn, padded to valueLen bytes.
func valueFor(conn, seq int) string {
	const valueLen = 32
	v := "c" + strconv.Itoa(conn) + "s" + strconv.Itoa(seq) + "-"
	if len(v) < valueLen {
		v += strings.Repeat("x", valueLen-len(v))
	}
	return v
}
