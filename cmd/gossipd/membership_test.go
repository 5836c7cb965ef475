package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// memberSites asks a daemon's client port for MEMBERS and returns the
// site IDs listed.
func memberSites(t *testing.T, d *daemon) map[string]bool {
	t.Helper()
	conn, err := net.Dial("tcp", d.ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("MEMBERS\n")); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	sites := make(map[string]bool)
	for _, f := range strings.Fields(line)[1:] {
		site, _, _ := strings.Cut(f, "=")
		sites[site] = true
	}
	return sites
}

// waitMembers polls until every daemon lists every site in want, failing
// with the lists it last saw once deadline passes.
func waitMembers(t *testing.T, deadline time.Time, want []int, daemons ...*daemon) {
	t.Helper()
	for {
		var missing []string
		for _, d := range daemons {
			got := memberSites(t, d)
			for _, site := range want {
				if !got[fmt.Sprint(site)] {
					missing = append(missing, fmt.Sprintf("site %d lacks %d", d.node.Site(), site))
				}
			}
		}
		if len(missing) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("membership incomplete at the deadline: %s", strings.Join(missing, ", "))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// freeAddr returns a loopback address nothing listens on yet, so a peer
// list can name a daemon before it starts.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// membershipBase is a daemon config whose background rounds are slower
// than the bounds the membership tests assert: a record that arrives in
// time came by direct mail, or by anti-entropy where a test allows it.
func membershipBase(aePer time.Duration) daemonConfig {
	return daemonConfig{
		listen: "127.0.0.1:0", client: "127.0.0.1:0",
		aePer: aePer, rumPer: time.Second,
		mail: true, k: 3, tau1: time.Hour, tau2: time.Hour, retain: 1,
	}
}

// TestDaemonStartupReachesLateSeed: A starts naming B, which starts
// 200 ms later. A's startup announcement fails to reach B at first; the
// outbox retries it, so both list both members well inside the 1 s rumor
// period.
func TestDaemonStartupReachesLateSeed(t *testing.T) {
	addrA, addrB := freeAddr(t), freeAddr(t)
	cfgA := membershipBase(10 * time.Second)
	cfgA.site, cfgA.listen, cfgA.peerSpec = 1, addrA, "2="+addrB
	cfgB := membershipBase(10 * time.Second)
	cfgB.site, cfgB.listen, cfgB.peerSpec = 2, addrB, "1="+addrA

	a, err := startDaemon(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	time.Sleep(200 * time.Millisecond)
	b, err := startDaemon(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	waitMembers(t, time.Now().Add(500*time.Millisecond), []int{1, 2}, a, b)
}

// TestDaemonJoinerKnownToOneSeed bounds the cost of receivers not
// re-spreading mail: a joiner that knows only one seed mails its
// announcement to that seed alone, and anti-entropy carries it on, so
// every replica lists every site within three anti-entropy periods.
func TestDaemonJoinerKnownToOneSeed(t *testing.T) {
	const aePer = 300 * time.Millisecond
	addr1, addr2 := freeAddr(t), freeAddr(t)
	cfg1 := membershipBase(aePer)
	cfg1.site, cfg1.listen, cfg1.peerSpec = 1, addr1, "2="+addr2
	cfg2 := membershipBase(aePer)
	cfg2.site, cfg2.listen, cfg2.peerSpec = 2, addr2, "1="+addr1
	s1, err := startDaemon(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := startDaemon(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	waitMembers(t, time.Now().Add(10*time.Second), []int{1, 2}, s1, s2)

	cfgJ := membershipBase(aePer)
	cfgJ.site, cfgJ.peerSpec = 3, "1="+addr1
	j, err := startDaemon(cfgJ)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	waitMembers(t, time.Now().Add(3*aePer), []int{1, 2, 3}, s1, s2, j)
}
