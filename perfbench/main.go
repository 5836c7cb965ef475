// Command perfbench is the replication benchmark: it launches three real
// gossipd replicas on loopback as child processes, drives one seeded
// workload over the client line protocol, checks every acknowledged write
// at every replica, and prints the end-to-end metrics. With -trace 1 it
// also hosts the same three replicas in its own process, built through the
// epidemic facade the way gossipd builds them, times its calls into each
// layer's public functions, and prints the per-layer metrics instead.
//
// Run it through run.sh, which builds gossipd and this program first:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runEnv is what every phase of a run shares.
type runEnv struct {
	root    string
	gossipd string
	dir     string // per-run temporary directory inside the checkout
	rp      *reaper
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = []string{"ingest", "browse", "steady", "rejoin"}

func main() {
	root := flag.String("root", ".", "checkout root (holds cmd/gossipd)")
	gossipd := flag.String("gossipd", "", "gossipd binary built from the checkout")
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "1: run the traced in-process phase and print per-layer metrics")
	flag.Parse()
	if err := mainErr(*root, *gossipd, *workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(root, gossipd, workload string, seed int64, seconds time.Duration, traced bool) error {
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	if seconds <= 0 {
		return fmt.Errorf("seconds must be positive")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	if gossipd == "" {
		return fmt.Errorf("-gossipd is required (run through perfbench/run.sh)")
	}
	if gossipd, err = filepath.Abs(gossipd); err != nil {
		return err
	}
	// Generator threads stay within the machine: GOMAXPROCS <= nproc.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	env := &runEnv{root: root, gossipd: gossipd, rp: newReaper()}
	env.dir, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(env.dir)
	if n := killStrays(gossipd); n > 0 {
		fmt.Printf("killed %d stray gossipd processes left by an earlier run\n", n)
	}

	// Kill every child on interrupt, then exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		env.rp.killAll()
		_ = os.RemoveAll(env.dir)
		fmt.Fprintln(os.Stderr, "perfbench: interrupted by", s)
		os.Exit(130)
	}()

	out, report, err := run(env, workload, seed, seconds, traced)
	if alive := env.rp.killAll(); len(alive) > 0 {
		return fmt.Errorf("replica processes %v survived cleanup", alive)
	}
	if err != nil {
		return err
	}
	fmt.Print(report)
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// run performs one benchmark run and returns the result object and the
// human-readable report printed before it.
func run(env *runEnv, workload string, seed int64, seconds time.Duration, traced bool) (*output, string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "perfbench workload=%s seed=%d seconds=%v trace=%v\n", workload, seed, seconds.Seconds(), traced)
	e2eSecs, idle := seconds, time.Duration(0)
	if traced {
		// The traced run splits its time between an untraced pass (for
		// the traced-vs-untraced differences and the idle CPU) and the
		// in-process traced pass.
		e2eSecs, idle = seconds/2, 2*time.Second
		if e2eSecs < time.Second {
			e2eSecs = time.Second
		}
	}
	res, err := runE2E(env, workload, seed, e2eSecs, idle)
	if err != nil {
		return nil, "", err
	}
	fmt.Fprintf(&sb, "meta %s\n", metaJSON(env, res))
	m := e2eMetrics(workload, res)
	writeE2EReport(&sb, workload, res, m)
	out := &output{
		Correct:   res.gate.lost == 0 && res.failed == 0 && res.invalid == "",
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metric{},
	}
	if !traced {
		for _, e := range e2eSpec {
			v := m[e.name]
			if math.IsNaN(v) || v == 0 {
				return nil, "", fmt.Errorf("end-to-end metric %s has no measurement", e.name)
			}
			out.Metrics[e.name] = metric{Value: v, Unit: e.unit}
		}
		return out, sb.String(), nil
	}
	layers, err := runTraced(env, workload, seed, seconds-e2eSecs, res, m, &sb)
	if err != nil {
		return nil, "", err
	}
	for _, l := range layerSpec {
		v := layers[l.name]
		if math.IsNaN(v) {
			v = 0 // a ratio whose base did not occur on this workload
		}
		out.Metrics[l.name] = metric{Value: v, Unit: l.unit}
	}
	return out, sb.String(), nil
}

// metricSpec names one reported metric, its unit, and what it means.
type metricSpec struct {
	name, unit, doc string
}

// e2eSpec lists the end-to-end metrics in the result line (tracing off).
// They are the ones whose run-to-run spread stays within the benchmark's
// bounds on a shared 2-core VM; reportSpec metrics are printed in the
// report only, because host scheduling noise moves them by more.
var e2eSpec = []metricSpec{
	{"setup_s", "s", "median of 3 launches until every replica answers MEMBERS with all sites, plus preload and its convergence"},
	{"ops_s", "ops/s", "acknowledged workload requests per second, probes excluded; ingest and steady follow a fixed schedule, so this flags a fall below it, not a gain (rejoin: missed writes repaired per second of catch-up, median over cycles)"},
	{"cpu_us_per_op", "us", "user+system CPU of all replicas per workload request (rejoin: per missed write over each catch-up, median over cycles)"},
	{"tx_bytes_per_op", "B", "wchar of all replicas minus client and probe reply bytes, per workload request (rejoin: per missed write, median over cycles)"},
}

var reportSpec = []metricSpec{
	{"write_p50_ms", "ms", "SET/DEL ack latency, from the send (closed loop) or the due time (open loop)"},
	{"write_p99_ms", "ms", "SET/DEL ack latency, 99th percentile"},
	{"read_p50_ms", "ms", "GET latency of the workload's reads (rejoin: catch-up polls; probe polls excluded)"},
	{"read_p99_ms", "ms", "GET latency, 99th percentile"},
	{"visible_p50_ms", "ms", "probe write ack at its origin to the first GET at another replica returning it (rejoin: restart to a missed write's first GET)"},
	{"visible_p99_ms", "ms", "visibility, 99th percentile"},
	{"catchup_s", "s", "rejoin: restart until a GET returns every missed write, median over kill/restart cycles"},
}

func e2eMetrics(workload string, r *e2eResult) map[string]float64 {
	m := map[string]float64{
		"setup_s":        r.setup.Seconds(),
		"write_p50_ms":   r.write.quantileMs(0.50),
		"write_p99_ms":   r.write.quantileMs(0.99),
		"read_p50_ms":    r.read.quantileMs(0.50),
		"read_p99_ms":    r.read.quantileMs(0.99),
		"visible_p50_ms": r.visible.quantileMs(0.50),
		"visible_p99_ms": r.visible.quantileMs(0.99),
	}
	if workload == "rejoin" {
		m["ops_s"] = median(r.opsW)
		m["cpu_us_per_op"] = median(r.cpuW)
		m["tx_bytes_per_op"] = median(r.txW)
	} else {
		// Totals, not window medians: per-request costs climb through a
		// run as the anti-entropy recent list (τ = 20 periods = 100 s)
		// fills, and each window holds only a few exchanges of it.
		m["ops_s"] = r.ops / r.measured.Seconds()
		m["cpu_us_per_op"] = ratio(float64(r.proc.cpu.Nanoseconds())/1e3, r.ops)
		m["tx_bytes_per_op"] = ratio(float64(r.proc.wchar-r.replyB), r.ops)
	}
	if workload == "rejoin" {
		m["catchup_s"] = median(r.catchup)
	}
	return m
}

func writeE2EReport(w io.Writer, workload string, r *e2eResult, m map[string]float64) {
	fmt.Fprintf(w, "setup: launches %v, preload %v (writes %v)\n", r.launches,
		r.preload.Round(time.Millisecond), r.preloadWrite.Round(time.Millisecond))
	fmt.Fprintf(w, "measured %.3fs in %d windows (rejoin: cycles); samples: write %d read %d visible %d; "+
		"latencies are medians over windows, rates and per-request costs totals (rejoin: medians over cycles)\n",
		r.measured.Seconds(), len(r.opsW), r.write.total(), r.read.total(), r.visible.total())
	if r.probeOps > 0 {
		fmt.Fprintf(w, "probe requests %.0f (%.1f%% of all served): left out of ops_s and the per-request "+
			"denominators; their reply bytes are subtracted from wchar, their replica CPU is not separable\n",
			r.probeOps, 100*r.probeOps/(r.probeOps+r.ops))
	}
	for _, e := range e2eSpec {
		fmt.Fprintf(w, "  %-16s %12.4f %-6s %s\n", e.name, m[e.name], e.unit, e.doc)
	}
	fmt.Fprintln(w, "report only:")
	for _, e := range reportSpec {
		if e.name != "catchup_s" || workload == "rejoin" {
			fmt.Fprintf(w, "  %-16s %12.4f %-6s %s\n", e.name, m[e.name], e.unit, e.doc)
		}
	}
	fmt.Fprintf(w, "per window (rejoin: per cycle): ops_s %s\n  cpu_us_per_op %s\n  tx_bytes_per_op %s\n",
		fmtList(r.opsW), fmtList(r.cpuW), fmtList(r.txW))
	if workload == "rejoin" {
		fmt.Fprintf(w, "catch-up per cycle (s): %s; missed %d writes\n", fmtList(r.catchup), r.missed)
	}
	if len(r.lateness) > 0 {
		fmt.Fprintf(w, "open-loop lateness p50 %.3f ms, p99 %.3f ms (bound %v)\n",
			r.lateness.quantileMs(0.5), r.lateness.quantileMs(0.99), latenessBound)
	}
	fmt.Fprintf(w, "gate: %d key×replica checks, %d lost acked writes, waited %v for quiescence\n",
		r.gate.checked, r.gate.lost, r.gate.waited.Round(time.Millisecond))
	if r.gate.example != "" {
		fmt.Fprintf(w, "gate example: %s\n", r.gate.example)
	}
	fmt.Fprintf(w, "failures: %d of %d attempted (unseen probes %d)", r.failed, r.attempted, r.unseen)
	if r.firstErr != nil {
		fmt.Fprintf(w, "; first: %v", r.firstErr)
	}
	fmt.Fprintln(w)
	if r.invalid != "" {
		fmt.Fprintf(w, "INVALID: %s\n", r.invalid)
	}
	fmt.Fprintln(w, "not covered: the line protocol's known defects (whitespace collapse inside SET values, "+
		"the 64 KB bufio.Scanner line cap) are left to a separate chaos harness; values here are single tokens")
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// metaJSON records the machine and build a run measured.
func metaJSON(env *runEnv, r *e2eResult) string {
	meta := map[string]any{
		"nproc":               runtime.NumCPU(),
		"gomaxprocs_gen":      runtime.GOMAXPROCS(0),
		"gomaxprocs_replicas": r.procs,
		"go":                  runtime.Version(),
		"commit":              commitOf(env.root),
		"host_steal_pct":      r.stealPct,
	}
	if r.idleCPU > 0 {
		meta["idle_cpu_ms_per_s"] = r.idleCPU
	}
	b, _ := json.Marshal(meta) // map of plain values: cannot fail
	return string(b)
}

// commitOf is the checkout's HEAD commit, when git and a work tree are there.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown (not a git checkout)"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
