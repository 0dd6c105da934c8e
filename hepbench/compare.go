package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparator needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runSet is one side of a comparison: per workload, per metric, the value
// of each run in file order, and the workload's failed and attempted totals.
type runSet struct {
	values    map[string]map[string][]float64
	failed    map[string]int
	attempted map[string]int
}

// loadRuns reads hepbench outputs and keeps the record lines.
func loadRuns(paths []string) (runSet, error) {
	rs := runSet{values: map[string]map[string][]float64{}, failed: map[string]int{}, attempted: map[string]int{}}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return rs, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			var rec record
			if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Schema != recordSchema {
				continue
			}
			if rs.values[rec.Workload] == nil {
				rs.values[rec.Workload] = map[string][]float64{}
			}
			for name, m := range rec.Metrics {
				rs.values[rec.Workload][name] = append(rs.values[rec.Workload][name], m.Value)
			}
			rs.failed[rec.Workload] += rec.Failed
			rs.attempted[rec.Workload] += rec.Attempted
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return rs, fmt.Errorf("%s: %w", path, err)
		}
	}
	return rs, nil
}

// verdict judges change against base for one end-to-end metric: a
// regression when the change's median is worse by more than bound; a gain
// when the change wins at least nine tenths of the run pairs and the medians
// differ by more than the base's quartile distance; unresolved when the
// base's own spread exceeds the bound and the change does not beat every
// base run; no change otherwise.
func verdict(base, change []float64, lowerBetter bool, bound float64, moreFailures bool) string {
	bq1, bm, bq3 := quartiles(base)
	_, cm, _ := quartiles(change)
	better := func(a, b float64) bool { // a better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	worse := (cm - bm) / bm
	if !lowerBetter {
		worse = -worse
	}
	if worse > bound {
		return "REGRESSION"
	}
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			if !better(c, b) {
				allBetter = false
			}
		}
	}
	wins, pairs := 0, min(len(base), len(change))
	for i := 0; i < pairs; i++ {
		if better(change[i], base[i]) {
			wins++
		}
	}
	gain := pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(cm-bm) > bq3-bq1
	switch {
	case (gain || allBetter) && moreFailures:
		return "no gain: more failures"
	case gain || allBetter:
		return "gain"
	case (bq3-bq1)/math.Abs(bm) > bound:
		return "unresolved"
	}
	return "no change"
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: hepbench compare [-bench BENCHMARK.json] base.out [change.out]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fs.Usage()
		return 2
	}
	b, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintln(stderr, "compare:", *benchPath, err)
		return 1
	}
	sets := make([]runSet, fs.NArg())
	for i := range sets {
		if sets[i], err = loadRuns([]string{fs.Arg(i)}); err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 1
		}
	}
	var workloads []string
	for w := range sets[0].values {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)

	side := func(xs []float64) string {
		if len(xs) == 0 {
			return fmt.Sprintf("%-44s", "-")
		}
		q1, m, q3 := quartiles(xs)
		return fmt.Sprintf("%12.6g [%11.6g %11.6g] %5.1f%% n=%-3d", m, q1, q3, 100*(q3-q1)/math.Abs(m), len(xs))
	}
	fmt.Fprintf(stdout, "%-13s %-26s %-6s %-44s", "workload", "metric", "unit", "base: median [q1 q3] spread n")
	if len(sets) == 2 {
		fmt.Fprintf(stdout, " %-44s %8s", "change: median [q1 q3] spread n", "delta")
	}
	fmt.Fprintf(stdout, " %s\n", "verdict")
	for _, w := range workloads {
		base := sets[0].values[w]
		var change map[string][]float64
		moreFailures := false
		if len(sets) == 2 {
			change = sets[1].values[w]
			moreFailures = sets[1].failed[w] > sets[0].failed[w]
			fmt.Fprintf(stdout, "%-13s failed/attempted: base %d/%d, change %d/%d\n", w,
				sets[0].failed[w], sets[0].attempted[w], sets[1].failed[w], sets[1].attempted[w])
		} else {
			fmt.Fprintf(stdout, "%-13s failed/attempted: %d/%d\n", w, sets[0].failed[w], sets[0].attempted[w])
		}
		row := func(name, unit, better string, bound float64, e2e bool) {
			bv := base[name]
			if len(bv) == 0 && len(change[name]) == 0 {
				return
			}
			fmt.Fprintf(stdout, "%-13s %-26s %-6s %s", w, name, unit, side(bv))
			v := "-"
			if len(sets) == 2 {
				cv := change[name]
				delta := "-"
				if len(bv) > 0 && len(cv) > 0 {
					delta = fmt.Sprintf("%+7.1f%%", 100*(median(cv)-median(bv))/math.Abs(median(bv)))
					if e2e {
						v = verdict(bv, cv, better == "lower", bound, moreFailures)
					}
				}
				fmt.Fprintf(stdout, " %s %8s", side(cv), delta)
			} else if e2e && len(bv) > 0 {
				q1, m, q3 := quartiles(bv)
				v = fmt.Sprintf("bound %.0f%%", 100*bound)
				if (q3-q1)/math.Abs(m) > bound {
					v += ", spread exceeds it"
				}
			}
			fmt.Fprintf(stdout, " %s\n", v)
		}
		for _, m := range spec.EndToEnd {
			row(m.Name, m.Unit, m.Better, m.Bound, true)
		}
		for _, m := range spec.PerLayer {
			row(m.Name, m.Unit, m.Better, 0, false)
		}
	}
	return 0
}
