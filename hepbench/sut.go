package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// WAL bounds for cta-durable: one run appends about a gigabyte, so only the
// newest segments stay on disk.
const (
	walSegmentMB = 64
	walRetain    = 2
)

// sut is one launch of the programs under test: hepccld, and hepcclgw in
// front of it when the workload routes through the gateway.
type sut struct {
	procs []*proc
	// dataAddr is where clients send events; daemonStats and gwStats are the
	// HTTP stats addresses ("" when absent).
	dataAddr    string
	daemonStats string
	gwStats     string
	walDir      string
	// commands are the launched command lines, for the result record.
	commands [][]string
}

// proc is one child process with its captured output.
type proc struct {
	name string
	cmd  *exec.Cmd
	out  *syncBuffer
	done chan struct{} // closed once Wait has returned
	err  error         // Wait's result, valid after done
}

// syncBuffer collects a child's output; exec copies into it from its own
// goroutine while the benchmark may read it for a failure report.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf.Len() > 1<<20 {
		return len(p), nil // keep the first MiB; enough to diagnose
	}
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freeAddrs reserves n loopback TCP addresses by binding port 0 and
// releasing the ports.
func freeAddrs(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// launcher starts the programs under test for one workload.
type launcher struct {
	bin     string // directory holding the hepccld and hepcclgw binaries
	tmp     string // parent of the per-launch WAL directory
	w       workload
	timeout time.Duration // bound on a launch becoming ready
}

// start launches the programs and returns once their ports accept
// connections (and, with a gateway, once it reports a routable backend).
// On any failure everything started is stopped before returning.
func (l *launcher) start() (s *sut, err error) {
	addrs, err := freeAddrs(4)
	if err != nil {
		return nil, err
	}
	s = &sut{daemonStats: addrs[1]}
	defer func() {
		if err != nil {
			s.stop()
			s = nil
		}
	}()
	daemonArgs := []string{
		"-listen", addrs[0], "-stats", addrs[1],
		"-config", l.w.config, "-samples", strconv.Itoa(samplesPerChannel),
		"-policy", l.w.policy,
		"-calibration", strconv.Itoa(calibrationEvents), "-seed", strconv.Itoa(calibrationSeed),
		"-log-interval", "0",
	}
	if l.w.record {
		if err := os.MkdirAll(l.tmp, 0o755); err != nil {
			return s, err
		}
		if s.walDir, err = os.MkdirTemp(l.tmp, "wal-"); err != nil {
			return s, err
		}
		daemonArgs = append(daemonArgs, "-record", s.walDir,
			"-record-segment-mb", strconv.Itoa(walSegmentMB), "-record-retain", strconv.Itoa(walRetain))
	}
	if err := s.spawn(filepath.Join(l.bin, "hepccld"), daemonArgs); err != nil {
		return s, err
	}
	s.dataAddr = addrs[0]
	if l.w.gateway {
		gwArgs := []string{
			"-listen", addrs[2], "-stats", addrs[3], "-config", l.w.config,
			"-backends", addrs[0] + "=" + addrs[1],
		}
		if err := s.spawn(filepath.Join(l.bin, "hepcclgw"), gwArgs); err != nil {
			return s, err
		}
		s.dataAddr, s.gwStats = addrs[2], addrs[3]
	}
	deadline := time.Now().Add(l.timeout)
	if err := s.waitDial(deadline); err != nil {
		return s, err
	}
	if s.gwStats != "" {
		if err := s.waitHealthy(s.gwStats, deadline); err != nil {
			return s, err
		}
	}
	return s, nil
}

func (s *sut) spawn(path string, args []string) error {
	p := &proc{name: filepath.Base(path), out: &syncBuffer{}, done: make(chan struct{})}
	p.cmd = exec.Command(path, args...)
	p.cmd.Stdout = p.out
	p.cmd.Stderr = p.out
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", p.name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	s.procs = append(s.procs, p)
	s.commands = append(s.commands, append([]string{p.name}, args...))
	return nil
}

// exited reports the first child that has already exited.
func (s *sut) exited() error {
	for _, p := range s.procs {
		select {
		case <-p.done:
			return p.exitError("exited early")
		default:
		}
	}
	return nil
}

func (s *sut) waitDial(deadline time.Time) error {
	for {
		if err := s.exited(); err != nil {
			return err
		}
		nc, err := net.DialTimeout("tcp", s.dataAddr, 100*time.Millisecond)
		if err == nil {
			nc.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not accepting connections: %w", s.dataAddr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *sut) waitHealthy(addr string, deadline time.Time) error {
	cl := http.Client{Timeout: 500 * time.Millisecond}
	for {
		if err := s.exited(); err != nil {
			return err
		}
		resp, err := cl.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway %s never healthy: %w", addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates every child (gateway first, so it drains into a live
// daemon), waits for each to exit, and removes the WAL directory. It
// returns an error if a child had to be killed or exited with a failure.
func (s *sut) stop() error {
	var errs []error
	for i := len(s.procs) - 1; i >= 0; i-- {
		p := s.procs[i]
		select {
		case <-p.done:
			errs = append(errs, p.exitError("exited before stop"))
			continue
		default:
		}
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
			if p.err != nil {
				errs = append(errs, p.exitError("failed to drain"))
			}
		case <-time.After(20 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
			errs = append(errs, fmt.Errorf("%s did not drain within 20s; killed", p.name))
		}
	}
	s.procs = nil
	if s.walDir != "" {
		if err := os.RemoveAll(s.walDir); err != nil {
			errs = append(errs, err)
		}
		s.walDir = ""
	}
	return errors.Join(errs...)
}

// pids returns the process ids of the running children.
func (s *sut) pids() []int {
	var out []int
	for _, p := range s.procs {
		out = append(out, p.cmd.Process.Pid)
	}
	return out
}

// exitError describes how a child ended, with the tail of its output. Call
// it only after p.done is closed.
func (p *proc) exitError(what string) error {
	err := p.err
	if err == nil {
		err = errors.New("exit status 0")
	}
	return fmt.Errorf("%s %s: %w: %s", p.name, what, err, lastLines(p.out.String(), 5))
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// daemonStats is the part of hepccld's /stats document the benchmark reads.
type daemonStats struct {
	EventsIn         uint64  `json:"events_in"`
	EventsOut        uint64  `json:"events_out"`
	Dropped          uint64  `json:"dropped"`
	BadEvents        uint64  `json:"bad_events"`
	IncompleteEvents uint64  `json:"incomplete_events"`
	ReadErrors       uint64  `json:"read_errors"`
	QueueHWM         int64   `json:"queue_hwm"`
	NsPerEvent       float64 `json:"ns_per_event"`
	Workers          int     `json:"workers"`
	ServeBackend     string  `json:"serve_backend"`
	Latency          struct {
		Count uint64 `json:"count"`
		P99Us uint64 `json:"p99_us"`
	} `json:"latency"`
	WAL *struct {
		Records      uint64 `json:"records"`
		AppendErrors uint64 `json:"append_errors"`
	} `json:"wal"`
}

// gatewayStats is the part of hepcclgw's /stats document the benchmark reads.
type gatewayStats struct {
	Offered uint64 `json:"offered"`
	Relayed uint64 `json:"relayed"`
	Retried uint64 `json:"retried"`
	Shed    struct {
		Overload       uint64 `json:"overload"`
		NoBackend      uint64 `json:"no_backend"`
		BackendFailed  uint64 `json:"backend_failed"`
		BackendDropped uint64 `json:"backend_dropped"`
	} `json:"shed"`
	Inflight int64 `json:"inflight"`
}

func (g *gatewayStats) shed() uint64 {
	return g.Shed.Overload + g.Shed.NoBackend + g.Shed.BackendFailed + g.Shed.BackendDropped
}

func scrape(addr string, v any) error {
	cl := http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + addr + "/stats")
	if err != nil {
		return fmt.Errorf("scrape %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape %s: %s", addr, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("scrape %s: %w", addr, err)
	}
	return nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux ABI Go supports.
const clockTick = 100

// procCPU returns the user+system CPU time of a process, all threads.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// cpuOf sums procCPU over pids.
func cpuOf(pids []int) (time.Duration, error) {
	var sum time.Duration
	for _, pid := range pids {
		d, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
