package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// reaper tracks every child process the benchmark starts so that each exit
// path (normal return, error, SIGINT/SIGTERM) kills and waits for all of
// them. A stray daemon from an interrupted run would otherwise be measured
// by the next run as a warm cluster.
type reaper struct {
	mu   sync.Mutex
	live map[*replica]bool
}

func newReaper() *reaper { return &reaper{live: make(map[*replica]bool)} }

func (r *reaper) add(p *replica) {
	r.mu.Lock()
	r.live[p] = true
	r.mu.Unlock()
}

func (r *reaper) remove(p *replica) {
	r.mu.Lock()
	delete(r.live, p)
	r.mu.Unlock()
}

// killAll kills every tracked child, waits for each, and returns the pids
// still present in /proc afterwards (none when cleanup worked).
func (r *reaper) killAll() []int {
	r.mu.Lock()
	ps := make([]*replica, 0, len(r.live))
	for p := range r.live {
		ps = append(ps, p)
	}
	r.mu.Unlock()
	var pids []int
	for _, p := range ps {
		pid := p.pid()
		p.kill()
		if pid > 0 {
			pids = append(pids, pid)
		}
	}
	var alive []int
	for _, pid := range pids {
		if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); err == nil {
			alive = append(alive, pid)
		}
	}
	return alive
}

// killStrays kills gossipd processes left running from this checkout's
// binary by an earlier, interrupted run, and returns how many it found.
func killStrays(bin string) int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == os.Getpid() {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err != nil || strings.TrimSuffix(exe, " (deleted)") != bin {
			continue
		}
		if syscall.Kill(pid, syscall.SIGKILL) == nil {
			n++
		}
	}
	return n
}

// reservePorts returns n distinct loopback ports that were free for both
// TCP and UDP (gossipd binds a UDP twin on its gossip port). Each replica
// then starts with the full -peers list, so no workload waits on
// membership discovery.
func reservePorts(n int) ([]int, error) {
	seen := make(map[int]bool)
	var ports []int
	for tries := 0; len(ports) < n && tries < 100*n; tries++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		port := ln.Addr().(*net.TCPAddr).Port
		uc, uerr := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
		_ = ln.Close()
		if uerr != nil || seen[port] {
			continue
		}
		_ = uc.Close()
		seen[port] = true
		ports = append(ports, port)
	}
	if len(ports) < n {
		return nil, errors.New("reserve port: no free loopback ports")
	}
	return ports, nil
}

// replica is one gossipd child process with fixed addresses and a private
// directory for its snapshot (-data), flight dumps (-flight-dir) and log.
type replica struct {
	site   int
	gossip string
	client string
	dir    string
	args   []string

	mu   sync.Mutex
	cmd  *exec.Cmd
	done chan struct{}
}

func (p *replica) snapshotPath() string { return filepath.Join(p.dir, "replica.snap") }

// start launches the process. The same addresses and -data path are
// reused on restart, so a restarted replica recovers from its snapshot.
func (p *replica) start(bin string, rp *reaper) error {
	f, err := os.OpenFile(filepath.Join(p.dir, "gossipd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	args := append([]string{
		"-site", strconv.Itoa(p.site),
		"-listen", p.gossip,
		"-client", p.client,
		"-data", p.snapshotPath(),
		"-flight-dir", filepath.Join(p.dir, "flight"),
	}, p.args...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	// The kernel kills the child if the benchmark dies without cleaning
	// up (kill -9 of the benchmark itself).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start gossipd site %d: %w", p.site, err)
	}
	done := make(chan struct{})
	p.mu.Lock()
	p.cmd, p.done = cmd, done
	p.mu.Unlock()
	rp.add(p)
	go func() {
		_ = cmd.Wait()
		close(done)
	}()
	return nil
}

func (p *replica) pid() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cmd == nil || p.cmd.Process == nil {
		return 0
	}
	return p.cmd.Process.Pid
}

// kill sends SIGKILL (kill -9) and waits until the process has exited.
func (p *replica) kill() {
	p.mu.Lock()
	cmd, done := p.cmd, p.done
	p.cmd = nil
	p.mu.Unlock()
	if cmd == nil {
		return
	}
	_ = cmd.Process.Kill()
	<-done
}

// alive reports whether the process is still running.
func (p *replica) alive() bool {
	p.mu.Lock()
	done := p.done
	running := p.cmd != nil
	p.mu.Unlock()
	if !running {
		return false
	}
	select {
	case <-done:
		return false
	default:
		return true
	}
}

// procSample is a replica's cumulative CPU time and bytes written.
type procSample struct {
	cpu   time.Duration
	wchar int64
}

func (a procSample) sub(b procSample) procSample {
	return procSample{cpu: a.cpu - b.cpu, wchar: a.wchar - b.wchar}
}

func (a procSample) add(b procSample) procSample {
	return procSample{cpu: a.cpu + b.cpu, wchar: a.wchar + b.wchar}
}

// readProc reads a process's CPU time (user+system) and wchar. CPU time
// is the sum of its threads' on-CPU nanoseconds from
// /proc/<pid>/task/*/schedstat: the same quantity /proc/<pid>/stat
// reports as utime+stime, but at nanosecond rather than 10 ms resolution,
// which the short rejoin catch-up windows need. wchar comes from
// /proc/<pid>/io; it counts write(2) bytes (TCP sends and logs) but not
// sendto(2), so UDP rumor pushes are not in it.
func readProc(pid int) (procSample, error) {
	var s procSample
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue // thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return s, fmt.Errorf("parse schedstat of %d/%s: %w", pid, t.Name(), err)
		}
		s.cpu += time.Duration(ns)
	}
	io, err := os.Open(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return s, err
	}
	defer io.Close()
	sc := bufio.NewScanner(io)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wchar: "); ok {
			s.wchar, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	return s, nil
}

// hostSteal returns the steal and total jiffies of all CPUs from
// /proc/stat: time the hypervisor ran something else while this VM
// wanted the CPU.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, x := range f[1:] {
		v, _ := strconv.ParseInt(x, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// procGOMAXPROCS reports the GOMAXPROCS a Go child runs with: the GOMAXPROCS
// variable in its environment, else the size of its CPU affinity mask (the
// Go runtime's default).
func procGOMAXPROCS(pid int) int {
	if env, err := os.ReadFile(fmt.Sprintf("/proc/%d/environ", pid)); err == nil {
		for _, kv := range strings.Split(string(env), "\x00") {
			if v, ok := strings.CutPrefix(kv, "GOMAXPROCS="); ok {
				if n, err := strconv.Atoi(v); err == nil && n > 0 {
					return n
				}
			}
		}
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return countCPUList(strings.TrimSpace(v))
		}
	}
	return 0
}

// countCPUList counts the CPUs in a list such as "0-3,6".
func countCPUList(s string) int {
	n := 0
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			continue
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				continue
			}
		}
		n += b - a + 1
	}
	return n
}

// cluster is three gossipd replicas on loopback.
type cluster struct {
	bin  string
	rp   *reaper
	reps []*replica
}

// newCluster reserves ports and directories for n replicas; extra flags
// (beyond addresses and paths) are passed to every replica.
func newCluster(bin, dir string, rp *reaper, n int, extra []string) (*cluster, error) {
	ports, err := reservePorts(2 * n)
	if err != nil {
		return nil, err
	}
	c := &cluster{bin: bin, rp: rp}
	for i := 0; i < n; i++ {
		d := filepath.Join(dir, fmt.Sprintf("replica%d", i+1))
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		c.reps = append(c.reps, &replica{
			site:   i + 1,
			gossip: fmt.Sprintf("127.0.0.1:%d", ports[2*i]),
			client: fmt.Sprintf("127.0.0.1:%d", ports[2*i+1]),
			dir:    d,
		})
	}
	for _, p := range c.reps {
		var peers []string
		for _, q := range c.reps {
			if q != p {
				peers = append(peers, fmt.Sprintf("%d=%s", q.site, q.gossip))
			}
		}
		p.args = append([]string{"-peers", strings.Join(peers, ",")}, extra...)
	}
	return c, nil
}

// launch starts every replica and waits until each answers MEMBERS with
// all sites. It returns the elapsed time.
func (c *cluster) launch(timeout time.Duration) (time.Duration, error) {
	t0 := time.Now()
	for _, p := range c.reps {
		if err := p.start(c.bin, c.rp); err != nil {
			return 0, err
		}
	}
	deadline := t0.Add(timeout)
	for _, p := range c.reps {
		if err := waitMembers(p, len(c.reps), deadline); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// stop kills every replica (kill -9) and waits for each.
func (c *cluster) stop() {
	for _, p := range c.reps {
		p.kill()
		c.rp.remove(p)
	}
}

// sample sums /proc counters over the running replicas.
func (c *cluster) sample() (procSample, error) {
	var tot procSample
	for _, p := range c.reps {
		if !p.alive() {
			continue
		}
		s, err := readProc(p.pid())
		if err != nil {
			return tot, err
		}
		tot = tot.add(s)
	}
	return tot, nil
}

// dialReady connects to a replica's client port, retrying until it
// accepts or the deadline passes.
func dialReady(p *replica, deadline time.Time) (*lineConn, error) {
	for {
		lc, err := dialLine(p.client)
		if err == nil {
			return lc, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("replica %d not accepting clients: %w", p.site, err)
		}
		if !p.alive() {
			return nil, fmt.Errorf("replica %d exited during start (see %s)", p.site, filepath.Join(p.dir, "gossipd.log"))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitMembers polls MEMBERS until the replica lists want sites.
func waitMembers(p *replica, want int, deadline time.Time) error {
	lc, err := dialReady(p, deadline)
	if err != nil {
		return err
	}
	defer lc.close()
	for {
		line, err := lc.roundTrip("MEMBERS")
		if err != nil {
			return fmt.Errorf("MEMBERS at replica %d: %w", p.site, err)
		}
		if len(strings.Fields(line))-1 >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica %d lists %q, want %d sites", p.site, line, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
