// Command hepbench is the repository's end-to-end benchmark. It launches
// hepccld (and hepcclgw in front of it) as separate processes, feeds them
// pre-digitized CTA or frame events over loopback TCP, checks every downlink
// record against an in-process reference, and prints the end-to-end metrics;
// with -trace 1 it instead prints the per-layer table, from /stats scraped
// after the same end-to-end run and from an in-process traced pass over the
// same inputs.
//
// Usage, from the repository root (run.sh builds the binaries first):
//
//	bash hepbench/run.sh --workload cta-saturate --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object; the line before it
// is the full record (host fingerprint, commands, metrics with units). The
// compare subcommand, run from this directory, reads saved outputs of one or
// two sets of runs:
//
//	go run . compare -bench ../BENCHMARK.json base.out change.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metricVal is one reported metric. An end-to-end metric is the median of
// several measurements (set-ups or windows); Q1 and Q3 are their quartiles
// and N counts the samples behind them.
type metricVal struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"n,omitempty"`
	Q1    *float64 `json:"q1,omitempty"`
	Q3    *float64 `json:"q3,omitempty"`
}

// summary reports the median of xs with its quartiles; n is the sample
// count behind xs.
func summary(xs []float64, n int) metricVal {
	q1, m, q3 := quartiles(xs)
	return metricVal{Value: m, N: n, Q1: &q1, Q3: &q3}
}

// result is the object printed on the last line.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// recordSchema names the layout of the record line; compare reads it.
const recordSchema = "hepbench.v1"

// record is the line before the result: the same metrics with their host,
// the benchmark's and the programs' command lines and any correctness
// problems.
type record struct {
	Schema    string               `json:"schema"`
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Trace     bool                 `json:"trace"`
	Host      host                 `json:"host"`
	Command   [][]string           `json:"command"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Problems  []string             `json:"problems,omitempty"`
	Metrics   map[string]metricVal `json:"metrics"`
}

type options struct {
	args     []string // the benchmark's own command line, for the record
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bin      string
	work     string
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hepbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{args: append([]string{"hepbench"}, args...)}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: cta-rate, cta-saturate, cta-durable or frame-512")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement length in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.bin, "bin", filepath.Join(".bench_build", "bin"), "directory holding the hepccld and hepcclgw binaries")
	fs.StringVar(&o.work, "work", ".bench_build", "scratch directory for WAL and temporary files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "hepbench: -trace must be 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "hepbench: -seconds must be positive")
		return 2
	}
	o.trace = trace == 1
	rec, err := runBench(o)
	if err != nil {
		fmt.Fprintln(stderr, "hepbench:", err)
		return 1
	}
	printTable(stdout, rec)
	line, _ := json.Marshal(rec)
	fmt.Fprintln(stdout, string(line))
	res := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]resultMetric{}}
	for name, m := range rec.Metrics {
		res.Metrics[name] = resultMetric{Value: m.Value, Unit: m.Unit}
	}
	line, _ = json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

func printTable(w io.Writer, rec record) {
	fmt.Fprintf(w, "hepbench %s seed=%d seconds=%g trace=%v on %q nproc=%d %s commit=%s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Host.CPU, rec.Host.Nproc, rec.Host.Go, rec.Host.Commit)
	for _, c := range rec.Command {
		fmt.Fprintf(w, "  command: %v\n", c)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %-6s", n, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		if m.Q1 != nil && m.Q3 != nil {
			fmt.Fprintf(w, " q1=%.6g q3=%.6g", *m.Q1, *m.Q3)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

func runBench(o options) (rec record, err error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return rec, err
	}
	cfg, err := pipelineConfig(w.config)
	if err != nil {
		return rec, err
	}
	templs, err := makeTemplates(cfg, w.templates, o.seed)
	if err != nil {
		return rec, err
	}
	rec = record{
		Schema: recordSchema, Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Host: fingerprint(), Metrics: map[string]metricVal{},
	}
	tmp := filepath.Join(o.work, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return rec, err
	}
	l := &launcher{bin: o.bin, tmp: tmp, w: w, timeout: 2 * time.Minute}
	var s *sut
	defer func() {
		if s != nil {
			s.stop()
		}
	}()

	// Set-up: launch, wait for the ports, one warm-up event. The last
	// launch stays up for the measurement.
	var setups []float64
	for k := 0; k < w.setups; k++ {
		t0 := time.Now()
		if s, err = l.start(); err != nil {
			return rec, err
		}
		if err := warmUp(s.dataAddr, &templs[k%len(templs)], k); err != nil {
			return rec, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < w.setups-1 {
			err := s.stop()
			s = nil
			if err != nil {
				return rec, err
			}
		}
	}
	rec.Command = append([][]string{o.args}, s.commands...)

	pids := s.pids()
	sutCPU0, err := cpuOf(pids)
	if err != nil {
		return rec, err
	}
	selfCPU0, wall0 := selfCPU(), time.Now()
	lr := runLoad(s.dataAddr, loadSpec{
		templs: templs, conns: w.conns, rate: w.rate, window: w.window,
		maxRate: w.maxRate, seconds: o.seconds,
	})
	wall := time.Since(wall0)
	selfCPU1 := selfCPU()
	sutCPU1, err := cpuOf(pids)
	if err != nil {
		return rec, err
	}
	var ds daemonStats
	var gs gatewayStats
	if err := scrape(s.daemonStats, &ds); err != nil {
		return rec, err
	}
	if s.gwStats != "" {
		if err := scrape(s.gwStats, &gs); err != nil {
			return rec, err
		}
	}
	stopErr := s.stop()
	s = nil

	rec.Attempted = lr.offered
	rec.Failed = lr.offered - lr.served
	problems := check(w, lr, ds, gs)
	if stopErr != nil {
		problems = append(problems, stopErr.Error())
	}

	fig, ferr := endToEnd(lr)
	if ferr != nil {
		problems = append(problems, ferr.Error())
	}
	if !o.trace {
		for name, m := range map[string]metricVal{
			"setup_s":        summary(setups, len(setups)),
			"served_eps":     summary(fig.eps, fig.samples),
			"latency_p50_us": summary(fig.p50s, fig.samples),
			"latency_p99_us": summary(fig.p99s, fig.samples),
		} {
			m.Unit = endToEndUnits[name]
			rec.Metrics[name] = m
		}
	} else {
		layers, terr := traced(cfg, templs, tmp)
		if terr != nil {
			problems = append(problems, "traced run: "+terr.Error())
		}
		for name, v := range layers {
			rec.Metrics[name] = metricVal{Value: v, Unit: perLayerUnits[name]}
		}
		// Busy share of the daemon's workers: its EWMA serve time per event
		// times the measured rate. driver.cpu_frac is the benchmark's own CPU
		// time over the measurement, as a share of all the host's cores.
		busy := 0.0
		if ds.Workers > 0 {
			busy = ds.NsPerEvent * median(fig.eps) / 1e9 / float64(ds.Workers)
		}
		walRecords, walErrors := 0.0, 0.0
		if ds.WAL != nil {
			walRecords, walErrors = float64(ds.WAL.Records), float64(ds.WAL.AppendErrors)
		}
		for name, v := range map[string]float64{
			"server.events_in":         float64(ds.EventsIn),
			"server.events_out":        float64(ds.EventsOut),
			"server.dropped":           float64(ds.Dropped),
			"server.bad_events":        float64(ds.BadEvents),
			"server.incomplete_events": float64(ds.IncompleteEvents),
			"server.read_errors":       float64(ds.ReadErrors),
			"server.queue_hwm":         float64(ds.QueueHWM),
			"server.handoff_p99_us":    float64(ds.Latency.P99Us),
			"server.ns_per_event":      ds.NsPerEvent,
			"server.worker_busy_frac":  busy,
			"wal.records":              walRecords,
			"wal.append_errors":        walErrors,
			"gateway.relayed":          float64(gs.Relayed),
			"gateway.shed":             float64(gs.shed()),
			"gateway.retried":          float64(gs.Retried),
			"gateway.inflight_end":     float64(gs.Inflight),
			"sut.cpu_ns_per_event":     float64(sutCPU1-sutCPU0) / float64(max(lr.offered, 1)),
			"driver.cpu_frac":          (selfCPU1 - selfCPU0).Seconds() / (wall.Seconds() * float64(runtime.NumCPU())),
			"driver.lag_p99_us":        fig.lagP99,
		} {
			rec.Metrics[name] = metricVal{Value: v, Unit: perLayerUnits[name]}
		}
	}
	for name, m := range rec.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			problems = append(problems, fmt.Sprintf("metric %s is not a number", name))
			m.Value = 0
			rec.Metrics[name] = m
		}
	}
	rec.Problems = problems
	rec.Correct = len(problems) == 0
	return rec, nil
}

// traced runs the in-process traced pass on a pipeline calibrated like the
// daemon's workers.
func traced(cfg adapt.Config, templs []template, tmp string) (map[string]float64, error) {
	p, err := adapt.New(cfg)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	cal, err := calibration(cfg)
	if err != nil {
		return nil, err
	}
	if err := p.Calibrate(cal); err != nil {
		return nil, err
	}
	// Spans cover groups of events, as many as keep a group's wire bytes
	// near 512 KiB: many CTA events, two large frames.
	group := max(2, min(32, (512<<10)/len(templs[0].wire)))
	return tracedRun(traceEnv{cfg: cfg, templs: templs, p: p, tmp: tmp, group: group})
}

// check applies the run's correctness rules: every record matches its
// reference, every offered event is accounted for by the programs' own
// counters, and nothing is lost where the policy forbids loss.
func check(w workload, lr loadResult, ds daemonStats, gs gatewayStats) []string {
	var p []string
	add := func(format string, args ...any) { p = append(p, fmt.Sprintf(format, args...)) }
	for _, e := range lr.errs {
		add("%v", e)
	}
	if lr.mismatched > 0 {
		add("%d records differ from their reference", lr.mismatched)
	}
	if lr.unknown > 0 {
		add("%d records for events never sent or already answered", lr.unknown)
	}
	missing := uint64(lr.offered - lr.served - lr.mismatched)
	if w.policy == "block" && missing > 0 {
		add("%d of %d events got no record under the block policy", missing, lr.offered)
	}
	if ds.BadEvents+ds.IncompleteEvents+ds.ReadErrors > 0 {
		add("daemon counted %d bad, %d incomplete events and %d read errors on clean input",
			ds.BadEvents, ds.IncompleteEvents, ds.ReadErrors)
	}
	// One warm-up event reached the measured launch before the load.
	const warm = 1
	offered, served := uint64(lr.offered+warm), uint64(lr.served+lr.mismatched+warm)
	if ds.EventsIn != ds.EventsOut+ds.Dropped {
		add("daemon identity broken: events_in %d != events_out %d + dropped %d", ds.EventsIn, ds.EventsOut, ds.Dropped)
	}
	if !w.gateway {
		if ds.EventsIn != offered || ds.EventsOut != served || ds.Dropped != missing {
			add("daemon counters (in %d, out %d, dropped %d) disagree with the client (offered %d, answered %d, missing %d)",
				ds.EventsIn, ds.EventsOut, ds.Dropped, offered, served, missing)
		}
	} else {
		if gs.Offered != gs.Relayed+gs.shed()+uint64(max(gs.Inflight, 0)) || gs.Inflight != 0 {
			add("gateway identity broken: offered %d != relayed %d + shed %d + inflight %d (inflight must end at 0)",
				gs.Offered, gs.Relayed, gs.shed(), gs.Inflight)
		}
		if gs.Offered != offered || gs.Relayed != served {
			add("gateway counters (offered %d, relayed %d) disagree with the client (offered %d, answered %d)",
				gs.Offered, gs.Relayed, offered, served)
		}
	}
	if w.record {
		switch {
		case ds.WAL == nil:
			add("daemon reports no WAL")
		case ds.WAL.Records < served:
			add("WAL holds %d records, fewer than the %d events served", ds.WAL.Records, served)
		case ds.WAL.AppendErrors > 0:
			add("WAL counted %d append errors", ds.WAL.AppendErrors)
		}
	}
	return p
}

// perLayerUnits lists the per-layer metrics -trace 1 prints, with units.
var perLayerUnits = map[string]string{
	"adapt.stream.read_ns":     "ns",
	"adapt.serve.batch64_ns":   "ns",
	"adapt.serve.batch1_ns":    "ns",
	"adapt.serve.frame_us":     "us",
	"adapt.transmit.encode_ns": "ns",
	"tileccl.label_us.w1":      "us",
	"tileccl.label_us.w2":      "us",
	"tileccl.tile_us":          "us",
	"tileccl.merge_us":         "us",
	"tileccl.scatter_us":       "us",
	"wal.append_ns":            "ns",
	"gateway.frame_ns":         "ns",
	"gateway.record_ns":        "ns",
	"trace.layer_sum_ns":       "ns",
	"trace.unaccounted_frac":   "frac",
	"trace.span_overhead_ns":   "ns",
	"server.events_in":         "count",
	"server.events_out":        "count",
	"server.dropped":           "count",
	"server.bad_events":        "count",
	"server.incomplete_events": "count",
	"server.read_errors":       "count",
	"server.queue_hwm":         "count",
	"server.handoff_p99_us":    "us",
	"server.ns_per_event":      "ns",
	"server.worker_busy_frac":  "frac",
	"wal.records":              "count",
	"wal.append_errors":        "count",
	"gateway.relayed":          "count",
	"gateway.shed":             "count",
	"gateway.retried":          "count",
	"gateway.inflight_end":     "count",
	"sut.cpu_ns_per_event":     "ns",
	"driver.cpu_frac":          "frac",
	"driver.lag_p99_us":        "us",
}

// endToEndUnits lists the metrics -trace 0 prints, with units.
var endToEndUnits = map[string]string{
	"served_eps":     "1/s",
	"latency_p50_us": "us",
	"latency_p99_us": "us",
	"setup_s":        "s",
}
