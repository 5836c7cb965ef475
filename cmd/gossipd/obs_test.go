package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"epidemic"
)

// fetchAdmin GETs one admin endpoint path and returns the body.
func fetchAdmin(t *testing.T, addr, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
	}
	return body
}

// TestObsSmoke is the observability smoke test behind `make obs-smoke`: a
// three-daemon cluster on ephemeral ports, one update gossiped through,
// then every daemon's admin endpoint is scraped and checked — /metrics
// must be well-formed Prometheus exposition carrying the acceptance metric
// families, /metrics/history retained trajectories, /healthz well-formed
// JSON, /events a JSON log of real node activity (?key= filtering it
// server-side), /flight the (healthy, empty) dump listing, and STATSJSON
// the history-derived trends block.
func TestObsSmoke(t *testing.T) {
	base := daemonConfig{
		listen: "127.0.0.1:0", client: "127.0.0.1:0", admin: "127.0.0.1:0",
		aePer: 20 * time.Millisecond, rumPer: 10 * time.Millisecond,
		mail: true, k: 3, tau1: time.Hour, tau2: time.Hour, retain: 1, shardVector: true,
		clusterDigests: true, digestEvery: 20 * time.Millisecond, staleAfter: time.Second,
		historyStep: 20 * time.Millisecond, historyRetention: time.Minute,
	}
	var daemons []*daemon
	for site := 1; site <= 3; site++ {
		cfg := base
		cfg.site = site
		cfg.flightDir = t.TempDir()
		if len(daemons) > 0 {
			cfg.peerSpec = "1=" + daemons[0].GossipAddr()
		}
		d, err := startDaemon(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		daemons = append(daemons, d)
	}

	send := func(addr, cmd string) string {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(cmd + "\n")); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(line)
	}

	if got := send(daemons[2].ClientAddr(), "SET greeting hello"); got != "OK" {
		t.Fatalf("SET = %q", got)
	}
	deadline := time.After(5 * time.Second)
	for _, d := range daemons {
		for {
			if got := send(d.ClientAddr(), "GET greeting"); got == "VALUE hello" {
				break
			}
			select {
			case <-deadline:
				t.Fatal("update never converged")
			case <-time.After(20 * time.Millisecond):
			}
		}
	}

	required := []string{
		epidemic.MetricAntiEntropyRuns,
		epidemic.MetricRumorRounds,
		epidemic.MetricFullCompares,
		epidemic.MetricMailFailures,
		epidemic.MetricUpdatePropagation,
		epidemic.MetricEntriesReceived,
		epidemic.MetricOutboxEnqueued,
		epidemic.MetricOutboxCoalesced,
		epidemic.MetricOutboxDropped,
		epidemic.MetricOutboxBatches,
		epidemic.MetricOutboxQueueDepth,
		epidemic.MetricMailBatchesReceived,
		epidemic.MetricWireDials,
		epidemic.MetricWireReuses,
		epidemic.MetricWireOpenConns,
		epidemic.MetricWireBytesSent,
		epidemic.MetricWireBytesReceived,
		epidemic.MetricWireEntriesPerExchange,
		epidemic.MetricWireBytesPerExchange,
		epidemic.MetricWireMailBatches,
		epidemic.MetricWireMailBatchEntries,
	}
	for i, d := range daemons {
		metrics := fetchAdmin(t, d.AdminAddr(), "/metrics")
		if err := epidemic.ValidateExposition(strings.NewReader(string(metrics))); err != nil {
			t.Fatalf("daemon %d: malformed exposition: %v\n%s", i, err, metrics)
		}
		for _, name := range required {
			if !strings.Contains(string(metrics), name) {
				t.Errorf("daemon %d: /metrics missing %s", i, name)
			}
		}

		var health struct {
			Status  string `json:"status"`
			Site    int    `json:"site"`
			Members int    `json:"members"`
		}
		if err := json.Unmarshal(fetchAdmin(t, d.AdminAddr(), "/healthz"), &health); err != nil {
			t.Fatalf("daemon %d: bad /healthz JSON: %v", i, err)
		}
		if health.Status != "ok" || health.Site != i+1 {
			t.Errorf("daemon %d: health = %+v", i, health)
		}
		if health.Members < 3 {
			t.Errorf("daemon %d: directory has %d members, want 3", i, health.Members)
		}

		var events struct {
			Events []epidemic.EventRecord `json:"events"`
		}
		if err := json.Unmarshal(fetchAdmin(t, d.AdminAddr(), "/events"), &events); err != nil {
			t.Fatalf("daemon %d: bad /events JSON: %v", i, err)
		}
		if len(events.Events) == 0 {
			t.Errorf("daemon %d: /events is empty after traffic", i)
		}

		var stats epidemic.NodeStats
		if err := json.Unmarshal([]byte(send(d.ClientAddr(), "STATSJSON")), &stats); err != nil {
			t.Fatalf("daemon %d: bad STATSJSON: %v", i, err)
		}
		if i == 2 && stats.UpdatesAccepted < 1 {
			t.Errorf("daemon %d: STATSJSON updates_accepted = %d", i, stats.UpdatesAccepted)
		}
		// The SET rode the async outbound engine: the originating daemon
		// must show the enqueues and drained batches behind its mail.
		if i == 2 && stats.OutboxEnqueued < 1 {
			t.Errorf("daemon %d: STATSJSON outbox_enqueued = %d", i, stats.OutboxEnqueued)
		}
		if i == 2 && stats.OutboxBatches < 1 {
			t.Errorf("daemon %d: STATSJSON outbox_batches = %d", i, stats.OutboxBatches)
		}
	}

	// The update was applied somewhere it did not originate, so at least
	// one daemon observed a propagation delay.
	total := uint64(0)
	for _, d := range daemons {
		hist := d.reg.Histogram(epidemic.MetricUpdatePropagation, "", nil)
		total += hist.Count()
	}
	if total == 0 {
		t.Error("no propagation delays were observed cluster-wide")
	}

	// /events honours the n limit.
	var limited struct {
		Events []epidemic.EventRecord `json:"events"`
	}
	if err := json.Unmarshal(fetchAdmin(t, daemons[0].AdminAddr(), "/events?n=1"), &limited); err != nil {
		t.Fatal(err)
	}
	if len(limited.Events) != 1 {
		t.Errorf("/events?n=1 returned %d events", len(limited.Events))
	}

	// /events?key= filters server-side: only records touching the SET key
	// come back, and at least one must (the update was applied everywhere).
	var keyed struct {
		Events []epidemic.EventRecord `json:"events"`
	}
	if err := json.Unmarshal(fetchAdmin(t, daemons[0].AdminAddr(), "/events?key=greeting"), &keyed); err != nil {
		t.Fatal(err)
	}
	if len(keyed.Events) == 0 {
		t.Error("/events?key=greeting returned nothing after the SET")
	}
	for _, e := range keyed.Events {
		if !e.Matches("greeting") {
			t.Errorf("/events?key=greeting leaked %+v", e)
		}
	}

	// Telemetry history: every daemon's sampler serves an index and
	// windowed points for the acceptance metrics, and /flight answers with
	// the healthy cluster's (empty) dump listing.
	for i, d := range daemons {
		var index struct {
			Samples uint64   `json:"samples"`
			Series  []string `json:"series"`
		}
		histDeadline := time.Now().Add(5 * time.Second)
		for {
			if err := json.Unmarshal(fetchAdmin(t, d.AdminAddr(), "/metrics/history"), &index); err != nil {
				t.Fatalf("daemon %d: bad /metrics/history JSON: %v", i, err)
			}
			if index.Samples >= 2 {
				break
			}
			if time.Now().After(histDeadline) {
				t.Fatalf("daemon %d: sampler never took two samples", i)
			}
			time.Sleep(20 * time.Millisecond)
		}
		if len(index.Series) == 0 {
			t.Errorf("daemon %d: /metrics/history lists no series", i)
		}
		var hist struct {
			Metric string                  `json:"metric"`
			Points []epidemic.HistoryPoint `json:"points"`
		}
		path := "/metrics/history?metric=" + epidemic.MetricRumorRounds + "&window=1m"
		if err := json.Unmarshal(fetchAdmin(t, d.AdminAddr(), path), &hist); err != nil {
			t.Fatalf("daemon %d: bad history points JSON: %v", i, err)
		}
		if len(hist.Points) == 0 {
			t.Errorf("daemon %d: no retained points for %s", i, epidemic.MetricRumorRounds)
		}

		var flight struct {
			Dir   string                    `json:"dir"`
			Dumps []epidemic.FlightDumpMeta `json:"dumps"`
		}
		if err := json.Unmarshal(fetchAdmin(t, d.AdminAddr(), "/flight"), &flight); err != nil {
			t.Fatalf("daemon %d: bad /flight JSON: %v", i, err)
		}
		if flight.Dir == "" {
			t.Errorf("daemon %d: /flight reports no dump dir", i)
		}
	}

	// STATSJSON grows the history-derived trends block once the digest
	// collector has two samples to rate over.
	var withTrends struct {
		Trends *epidemic.ClusterTrends `json:"trends"`
	}
	trendDeadline := time.Now().Add(5 * time.Second)
	for {
		if err := json.Unmarshal([]byte(send(daemons[0].ClientAddr(), "STATSJSON")), &withTrends); err != nil {
			t.Fatal(err)
		}
		if withTrends.Trends != nil {
			break
		}
		if time.Now().After(trendDeadline) {
			t.Fatal("STATSJSON never grew a trends block")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if withTrends.Trends.WindowSeconds <= 0 {
		t.Errorf("trends window_seconds = %v", withTrends.Trends.WindowSeconds)
	}
}

// TestBuildLogger covers the flag-to-logger mapping, including rejection
// of unknown levels and formats.
func TestBuildLogger(t *testing.T) {
	if l, err := buildLogger("", ""); err != nil || l != nil {
		t.Errorf("empty level: logger=%v err=%v", l, err)
	}
	for _, level := range []string{"debug", "info", "warn", "error"} {
		for _, format := range []string{"", "text", "json"} {
			if l, err := buildLogger(level, format); err != nil || l == nil {
				t.Errorf("level=%q format=%q: logger=%v err=%v", level, format, l, err)
			}
		}
	}
	if _, err := buildLogger("loud", "text"); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := buildLogger("info", "yaml"); err == nil {
		t.Error("bad format accepted")
	}
}

// TestClientStatsJSON checks the machine-readable stats command against
// the snake_case contract of node.Stats.
func TestClientStatsJSON(t *testing.T) {
	n, err := epidemic.NewNode(epidemic.NodeConfig{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	n.Update("k", epidemic.Value("v"))
	got := clientSession(t, n, []string{"STATSJSON"})
	var raw map[string]any
	if err := json.Unmarshal([]byte(got[0]), &raw); err != nil {
		t.Fatalf("STATSJSON = %q: %v", got[0], err)
	}
	if v, ok := raw["updates_accepted"]; !ok || v != float64(1) {
		t.Errorf("updates_accepted = %v (present=%v)", v, ok)
	}
	for _, field := range []string{"mail_sent", "mail_failed", "anti_entropy_runs",
		"rumor_runs", "entries_sent", "entries_received", "entries_applied",
		"full_compares", "redistributed", "certificates_expired"} {
		if _, ok := raw[field]; !ok {
			t.Errorf("STATSJSON missing field %q", field)
		}
	}
}

// TestClientWire checks the WIRE command's pool/traffic snapshot contract.
func TestClientWire(t *testing.T) {
	n, err := epidemic.NewNode(epidemic.NodeConfig{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	wire := &epidemic.WireStats{}
	server, client := net.Pipe()
	go handleClient(server, n, clientEnv{wire: wire})
	defer client.Close()
	if _, err := client.Write([]byte("WIRE\n")); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(client).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal([]byte(line), &raw); err != nil {
		t.Fatalf("WIRE = %q: %v", line, err)
	}
	for _, field := range []string{"dials", "redials", "reuses", "open_conns",
		"bytes_sent", "bytes_received", "exchanges"} {
		if _, ok := raw[field]; !ok {
			t.Errorf("WIRE missing field %q", field)
		}
	}
}
