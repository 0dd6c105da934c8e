package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
)

func ctaTemplates(t *testing.T, n int) (adapt.Config, []template) {
	t.Helper()
	cfg, err := pipelineConfig("cta")
	if err != nil {
		t.Fatal(err)
	}
	templs, err := makeTemplates(cfg, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, templs
}

func TestLatencyFromScheduledSend(t *testing.T) {
	// The generator sent 5 ms late; the record came 3 ms after the send.
	s := sample{due: 1_000_000, sent: 6_000_000, arrive: 9_000_000}
	if got := s.lat(true); got != 8_000_000 {
		t.Errorf("open loop latency %d, want 8000000 (from the scheduled send)", got)
	}
	if got := s.lat(false); got != 3_000_000 {
		t.Errorf("closed loop latency %d, want 3000000 (from the actual send)", got)
	}
	if got := s.lag(); got != 5_000_000 {
		t.Errorf("lag %d, want 5000000", got)
	}

	// An open loop whose generator stalled for 50 ms: every event due in
	// the stall carries the stall in its latency, not just its own service.
	lr := loadResult{openLoop: true, from: 0, to: int64(2 * time.Second)}
	for i := int64(0); i < 4000; i++ {
		due := i * 500_000 // 2000 ev/s
		sent := due
		if due >= 100_000_000 && due < 150_000_000 {
			sent = 150_000_000
		}
		lr.samples = append(lr.samples, sample{due: due, sent: sent, arrive: sent + 100_000})
	}
	f, err := endToEnd(lr)
	if err != nil {
		t.Fatal(err)
	}
	// 100 of the first window's 2000 events waited behind the stall; the
	// median event of either window did not.
	if p50 := median(f.p50s); p50 != 100 {
		t.Errorf("p50 %v us, want 100", p50)
	}
	if f.lagP99 < 25_000 {
		t.Errorf("generator lag p99 %v us, want the stall to show", f.lagP99)
	}
	var worst int64
	for _, s := range lr.samples {
		worst = max(worst, s.lat(true))
	}
	if worst != 50_100_000 {
		t.Errorf("worst latency %d, want 50.1 ms counted from the schedule", worst)
	}
}

func TestPercentileKeepsTenBeyond(t *testing.T) {
	mk := func(n int) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(i + 1)
		}
		return xs
	}
	p, err := percentile(mk(1000), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	beyond := 0
	for _, x := range mk(1000) {
		if x > p {
			beyond++
		}
	}
	if beyond < minTail {
		t.Errorf("p99 of 1000 = %d leaves %d samples beyond, want >= %d", p, beyond, minTail)
	}
	if _, err := percentile(mk(999), 0.99); err == nil {
		t.Error("p99 of 999 samples leaves 9 beyond; want an error")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples; want an error")
	}

	// Windows shrink in number until each holds enough samples for its p99,
	// also when the rate dips in part of the run.
	for _, tc := range []struct {
		name         string
		dense, total int64 // samples in the first 5 s, in all 10 s
		windows      int
	}{
		{"even", 1650, 3300, 3},
		{"dip", 2500, 3000, 1},
	} {
		lr := loadResult{from: 0, to: int64(10 * time.Second)}
		for i := int64(0); i < tc.total; i++ {
			sent := i * int64(5*time.Second) / tc.dense
			if i >= tc.dense {
				sent = int64(5*time.Second) + (i-tc.dense)*int64(5*time.Second)/(tc.total-tc.dense)
			}
			lr.samples = append(lr.samples, sample{sent: sent, arrive: sent + 1000})
		}
		f, err := endToEnd(lr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(f.eps) != tc.windows {
			t.Errorf("%s: %d windows, want %d", tc.name, len(f.eps), tc.windows)
		}
	}
	lr := loadResult{from: 0, to: int64(10 * time.Second)}
	for i := int64(0); i < windowSamples-1; i++ {
		lr.samples = append(lr.samples, sample{sent: i * 1_000_000, arrive: i*1_000_000 + 1000})
	}
	if _, err := endToEnd(lr); err == nil {
		t.Error("too few samples for one window; want an error")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) on the same data.
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

// fakeDaemon answers each event with its template's reference record,
// except that it corrupts or omits the record of event faultSeq.
func fakeDaemon(t *testing.T, cfg adapt.Config, templs []template, faultSeq int, omit bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				sr := adapt.NewStreamReader(nc)
				bw := bufio.NewWriter(nc)
				for {
					packets, err := sr.ReadEvent(cfg.ASICs)
					if err != nil {
						bw.Flush()
						return
					}
					id := packets[0].Event
					seq := int(id & seqMask)
					rec := append([]byte(nil), templs[seq%len(templs)].ref...)
					rec[0], rec[1], rec[2], rec[3] = byte(id>>24), byte(id>>16), byte(id>>8), byte(id)
					if seq == faultSeq {
						if omit {
							continue
						}
						rec[len(rec)-1] ^= 1
					}
					bw.Write(rec)
					bw.Flush()
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func TestBadRecordsFailTheRun(t *testing.T) {
	cfg, templs := ctaTemplates(t, 4)
	w := workload{policy: "block"}
	for _, tc := range []struct {
		name string
		omit bool
		want string
	}{
		{"mismatched", false, "differ from their reference"},
		{"missing", true, "got no record"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := fakeDaemon(t, cfg, templs, 5, tc.omit)
			lr := runLoad(addr, loadSpec{templs: templs, conns: 1, window: 4, maxRate: 20000, seconds: 0.3})
			if len(lr.errs) > 0 {
				t.Fatal(lr.errs)
			}
			if lr.offered < 10 {
				t.Fatalf("only %d events offered", lr.offered)
			}
			if failed := lr.offered - lr.served; failed != 1 {
				t.Errorf("%d failed operations, want 1", failed)
			}
			// Counters that agree with the client, so only the record fault
			// can fail the run.
			answered := uint64(lr.served + lr.mismatched + 1)
			ds := daemonStats{EventsIn: uint64(lr.offered + 1), EventsOut: answered}
			ds.Dropped = ds.EventsIn - ds.EventsOut
			problems := check(w, lr, ds, gatewayStats{})
			if len(problems) == 0 {
				t.Fatal("a faulty record passed the checks")
			}
			if !strings.Contains(strings.Join(problems, "\n"), tc.want) {
				t.Errorf("problems %q do not mention %q", problems, tc.want)
			}
		})
	}
}

func TestCleanRunPassesChecks(t *testing.T) {
	cfg, templs := ctaTemplates(t, 4)
	addr := fakeDaemon(t, cfg, templs, -1, false)
	lr := runLoad(addr, loadSpec{templs: templs, conns: 2, window: 8, maxRate: 20000, seconds: 0.3})
	ds := daemonStats{EventsIn: uint64(lr.offered + 1), EventsOut: uint64(lr.served + 1)}
	if p := check(workload{policy: "block"}, lr, ds, gatewayStats{}); len(p) > 0 {
		t.Fatal(p)
	}
	if lr.served != lr.offered || lr.served == 0 {
		t.Fatalf("served %d of %d", lr.served, lr.offered)
	}
}

// fakeBinary writes an executable shell script standing in for hepccld.
func fakeBinary(t *testing.T, body string) string {
	t.Helper()
	bin := t.TempDir()
	if err := os.WriteFile(filepath.Join(bin, "hepccld"), []byte("#!/bin/sh\n"+body+"\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestFailedLaunchCleansUp(t *testing.T) {
	w := workload{config: "cta", policy: "block", record: true}
	t.Run("never-ready", func(t *testing.T) {
		pidFile := filepath.Join(t.TempDir(), "pid")
		bin := fakeBinary(t, "echo $$ > "+pidFile+"; exec sleep 60")
		tmp := t.TempDir()
		l := &launcher{bin: bin, tmp: tmp, w: w, timeout: 300 * time.Millisecond}
		if _, err := l.start(); err == nil {
			t.Fatal("a daemon that never listens started")
		}
		b, err := os.ReadFile(pidFile)
		if err != nil {
			t.Fatal(err)
		}
		pid, err := strconv.Atoi(strings.TrimSpace(string(b)))
		if err != nil {
			t.Fatal(err)
		}
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("child %d still exists after the failed launch (kill 0: %v)", pid, err)
		}
		assertEmpty(t, tmp)
	})
	t.Run("exits-early", func(t *testing.T) {
		bin := fakeBinary(t, "echo boom >&2; exit 3")
		tmp := t.TempDir()
		l := &launcher{bin: bin, tmp: tmp, w: w, timeout: 10 * time.Second}
		_, err := l.start()
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("start error %v, want the child's exit reported with its output", err)
		}
		assertEmpty(t, tmp)
	})
}

// TestMain lets the test binary stand in for hepccld and hepcclgw: with
// HEPBENCH_FAKE_PIDS set it listens like them, records its pid there and
// answers every connection with a record that matches nothing.
func TestMain(m *testing.M) {
	if pids := os.Getenv("HEPBENCH_FAKE_PIDS"); pids != "" {
		fakeProgram(pids, os.Args[1:])
		return
	}
	os.Exit(m.Run())
}

func fakeProgram(pidFile string, args []string) {
	f, err := os.OpenFile(pidFile, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		os.Exit(1)
	}
	fmt.Fprintln(f, os.Getpid())
	f.Close()
	flag := func(name string) string {
		for i := 0; i+1 < len(args); i++ {
			if args[i] == name {
				return args[i+1]
			}
		}
		return ""
	}
	go http.ListenAndServe(flag("-stats"), http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	ln, err := net.Listen("tcp", flag("-listen"))
	if err != nil {
		os.Exit(1)
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			os.Exit(1)
		}
		nc.Write(make([]byte, adapt.RecordHeaderBytes))
	}
}

func TestFailedRunCleansUp(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	pidFile := filepath.Join(t.TempDir(), "pids")
	bin := fakeBinary(t, "HEPBENCH_FAKE_PIDS="+pidFile+" exec "+exe+` "$@"`)
	if err := os.Link(filepath.Join(bin, "hepccld"), filepath.Join(bin, "hepcclgw")); err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	_, err = runBench(options{workload: "cta-durable", seed: 1, seconds: 1, bin: bin, work: work})
	if err == nil || !strings.Contains(err.Error(), "warm-up") {
		t.Fatalf("runBench error %v, want the mismatched warm-up record", err)
	}
	b, err := os.ReadFile(pidFile)
	if err != nil {
		t.Fatal(err)
	}
	pids := strings.Fields(string(b))
	if len(pids) != 2 {
		t.Fatalf("fake programs started %d times, want daemon and gateway", len(pids))
	}
	for _, p := range pids {
		pid, err := strconv.Atoi(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("child %d still exists after the failed run (kill 0: %v)", pid, err)
		}
	}
	assertEmpty(t, filepath.Join(work, "tmp"))
}

func assertEmpty(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) > 0 {
		t.Errorf("%s still holds %s after the failure", dir, ents[0].Name())
	}
}

// The reference the benchmark checks records against must be what the
// serving path produces under the daemon's calibration.
func TestReferenceMatchesServingPath(t *testing.T) {
	for _, geom := range []string{"cta", "160x160"} {
		cfg, err := pipelineConfig(geom)
		if err != nil {
			t.Fatal(err)
		}
		templs, err := makeTemplates(cfg, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		p, err := adapt.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cal, err := calibration(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Calibrate(cal); err != nil {
			t.Fatal(err)
		}
		events := make([][]adapt.Packet, len(templs))
		for i := range templs {
			events[i] = templs[i].packets
		}
		recs := make([]adapt.EventRecord, len(events))
		errs := make([]error, len(events))
		p.ServeBatch(events, recs, errs)
		islands := 0
		for i := range templs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !bytes.Equal(recs[i].Marshal(), templs[i].ref) {
				t.Errorf("%s template %d: served record differs from the reference", geom, i)
			}
			islands += len(recs[i].Islands)
		}
		if islands == 0 {
			t.Errorf("%s: no islands in any template", geom)
		}
		p.Close()
	}
}

func TestTracedRunCoversWallTime(t *testing.T) {
	if testing.Short() {
		t.Skip("traced run takes a few seconds")
	}
	cfg, templs := ctaTemplates(t, 8)
	m, err := traced(cfg, templs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 16 {
		t.Errorf("traced run gave %d metrics, want 16", len(m))
	}
	for name, v := range m {
		if _, ok := perLayerUnits[name]; !ok {
			t.Errorf("traced metric %s is not a per-layer metric", name)
		}
		if v <= 0 {
			t.Errorf("traced metric %s = %v, want a positive time", name, v)
		}
	}
	if u := m["trace.unaccounted_frac"]; u > unaccountedTolerance {
		t.Errorf("unaccounted %v above tolerance", u)
	}
}

// BENCHMARK.json must name workloads the benchmark runs and exactly the
// metrics it prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 {
		t.Errorf("BENCHMARK.json names %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	units := func(m map[string]string) []string {
		var out []string
		for n, u := range m {
			out = append(out, n+" "+u)
		}
		sort.Strings(out)
		return out
	}
	got := map[string]string{}
	for _, m := range spec.EndToEnd {
		got[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(units(got), units(endToEndUnits)) {
		t.Errorf("end_to_end %v, benchmark prints %v", units(got), units(endToEndUnits))
	}
	got = map[string]string{}
	for _, m := range spec.PerLayer {
		got[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(units(got), units(perLayerUnits)) {
		t.Errorf("per_layer %v, benchmark prints %v", units(got), units(perLayerUnits))
	}
}
