package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Harness self-tests: the correctness gate and the open-loop validity
// check must each fail a run when their condition is violated. They build
// gossipd from the enclosing checkout and run real replicas on loopback:
//
//	cd perfbench && go test ./...

func buildGossipd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gossipd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gossipd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build gossipd: %v\n%s", err, out)
	}
	return bin
}

func startCluster(t *testing.T, bin string) *cluster {
	t.Helper()
	rp := newReaper()
	c, err := newCluster(bin, t.TempDir(), rp, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if alive := rp.killAll(); len(alive) > 0 {
			t.Errorf("replicas %v survived cleanup", alive)
		}
	})
	if _, err := c.launch(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGateCatchesRemovedWrite deletes one acknowledged write on a separate
// connection between the load and the check; the gate must report it.
func TestGateCatchesRemovedWrite(t *testing.T) {
	c := startCluster(t, buildGossipd(t))
	b := newBook()
	b.measure(newBin(time.Second))
	lc, err := dialLine(c.reps[0].client)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.close()
	m := newMix(1, 0, 1000, 0, 100, 0, time.Now().Add(500*time.Millisecond))
	pipeline(lc, depth, false, m.next, b.done)
	if b.failures() > 0 || b.acked == 0 {
		t.Fatalf("load: acked %d, failures %d: %v", b.acked, b.failures(), b.firstErr)
	}
	models := []map[string]expect{b.model}
	if g := verify(c, models, 10*time.Second); g.lost != 0 {
		t.Fatalf("untampered run: gate reports %d lost writes (%s)", g.lost, g.example)
	}

	var victim string
	for k, v := range b.model {
		if !v.deleted {
			victim = k
			break
		}
	}
	other, err := dialLine(c.reps[1].client)
	if err != nil {
		t.Fatal(err)
	}
	defer other.close()
	if reply, err := other.roundTrip("DEL " + victim); err != nil || reply != "OK" {
		t.Fatalf("DEL %s: %q %v", victim, reply, err)
	}
	g := verify(c, models, 2*time.Second)
	if g.lost == 0 {
		t.Fatalf("gate missed the acked write to %s removed behind the generator's back", victim)
	}
	t.Logf("gate: %d lost, e.g. %s", g.lost, g.example)
}

// TestOpenLoopMarksLateRunInvalid stalls the open-loop generator past the
// lateness bound; the run must be marked invalid, and an unstalled run
// must not be.
func TestOpenLoopMarksLateRunInvalid(t *testing.T) {
	c := startCluster(t, buildGossipd(t))
	for _, stall := range []time.Duration{0, 3 * latenessBound} {
		lc, err := dialLine(c.reps[0].client)
		if err != nil {
			t.Fatal(err)
		}
		b := newBook()
		b.measure(newBin(time.Second))
		m := newMix(1, 0, 1000, 0, 50, 0, time.Time{})
		pause := func(i int) {
			if stall > 0 && i%50 == 0 {
				time.Sleep(stall)
			}
		}
		lateness := openLoop(lc, time.Now(), time.Second, 1000, m.op, pause, b.done)
		lc.close()
		verdict := latenessVerdict(lateness)
		if stall == 0 && verdict != "" {
			t.Logf("unstalled run marked invalid on this machine: %s", verdict)
		}
		if stall > 0 && verdict == "" {
			t.Fatalf("generator stalled %v every 50 requests, yet the run is valid (p99 lateness %.3f ms)",
				stall, lateness.quantileMs(0.99))
		}
	}
}

// TestTracedDefaultsMatchGossipd checks that the traced replicas' copy of
// gossipd's flag defaults matches the built daemon, and that a drifted
// default is reported.
func TestTracedDefaultsMatchGossipd(t *testing.T) {
	if err := checkDefaults(buildGossipd(t)); err != nil {
		t.Fatal(err)
	}
	fake := filepath.Join(t.TempDir(), "gossipd")
	script := "#!/bin/sh\nprintf '  -k int\\n    \\trumor counter threshold (default 4)\\n' >&2\n"
	if err := os.WriteFile(fake, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	err := checkDefaults(fake)
	if err == nil || !strings.Contains(err.Error(), "-k defaults to 4") {
		t.Fatalf("drifted -k not reported: %v", err)
	}
}
