package main

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"epidemic"
)

// FuzzClientProtocol drives handleClient over net.Pipe with arbitrary
// lines. It must never panic, and every complete command line under the
// 64 KiB cap other than QUIT must get exactly one reply line; an overlong
// line gets the ERR line and ends the session, as QUIT does silently. A
// GET of a key the input never names closes each session, so a missing or
// extra reply shows as a misplaced MISSING.
func FuzzClientProtocol(f *testing.F) {
	f.Add([]byte("SET sp a  b\nGET sp\n"))
	f.Add([]byte("SET big " + strings.Repeat("x", 70<<10) + "\nGET big\n"))
	f.Add([]byte("GET\nSET k\nDEL k\nKEYS\n\n  \nHOT\nSNAPSHOT\nBOGUS x\nQUIT\nGET k\n"))
	f.Add([]byte("set k \tv\r\nstatsjson\nwire\ntrace k\nmembers\nstats"))

	n, err := epidemic.NewNode(epidemic.NodeConfig{Site: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		want, last, closes := expectedReplies(input)
		sentinel := "fuzz-sentinel"
		for _, taken := n.Lookup(sentinel); taken || bytes.Contains(input, []byte(sentinel)); _, taken = n.Lookup(sentinel) {
			sentinel += "x"
		}
		if !closes {
			want++
			last = "MISSING\n" // the sentinel GET's reply
		}

		server, client := net.Pipe()
		defer client.Close()
		go handleClient(server, n, clientEnv{})
		go func() {
			msg := append(append([]byte(nil), input...), '\n')
			_, _ = client.Write(append(msg, "GET "+sentinel+"\n"...))
		}()
		_ = client.SetReadDeadline(time.Now().Add(10 * time.Second))
		r := bufio.NewReader(client)
		var replies []string
		for len(replies) < want {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("reply %d of %d: %v (got %q)", len(replies)+1, want, err, replies)
			}
			replies = append(replies, line)
		}
		if last != "" && replies[want-1] != last {
			t.Fatalf("last reply = %q, want %q (replies %q)", replies[want-1], last, replies)
		}
		if closes {
			if extra, err := r.ReadString('\n'); err != io.EOF {
				t.Fatalf("session not closed after QUIT or an overlong line: %q %v", extra, err)
			}
		}
	})
}

// expectedReplies counts the reply lines handleClient owes input, read as
// bufio.ScanLines reads it. closes reports a session that ends before the
// input does: at QUIT, which owes nothing, or at a line over the cap, whose
// owed ERR line is returned as last.
func expectedReplies(input []byte) (replies int, last string, closes bool) {
	for _, raw := range strings.Split(string(input), "\n") {
		if len(raw) >= bufio.MaxScanTokenSize {
			return replies + 1, "ERR line exceeds 65536 bytes\n", true
		}
		fields := strings.Fields(strings.TrimSuffix(raw, "\r"))
		if len(fields) == 0 {
			continue
		}
		if strings.ToUpper(fields[0]) == "QUIT" {
			return replies, "", true
		}
		replies++
	}
	return replies, "", false
}
