package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile for it
// to mean anything.
const minTail = 10

// percentile returns the nearest-rank p-quantile of sorted (ascending)
// samples. It fails unless at least minTail samples lie strictly beyond the
// returned rank, so a tail percentile is never read off a handful of points.
func percentile(sorted []int64, p float64) (int64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*p, n, beyond, minTail)
	}
	return sorted[rank], nil
}

func sortInt64(xs []int64) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so figures here agree with any tool that uses it. A single
// sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// minWindow is the shortest window over which throughput and latency are
// summarized before taking medians across windows; windowSamples is the
// fewest samples a window may hold, so its p99 has minTail samples beyond.
const (
	minWindow     = time.Second
	windowSamples = 100 * minTail
)

// figures are one measurement's per-window throughput (1/s) and latency
// percentiles (us), and the generator's lag p99 (us) over the whole run.
type figures struct {
	eps, p50s, p99s []float64
	lagP99          float64
	samples         int
}

// endToEnd summarizes a measurement. Throughput and latency are computed per
// window of the steady interval [from, to) — events belong to the window
// they were sent in — and reported as medians across windows, so a burst of
// host noise moves one window, not the result. It uses as many equal
// windows, at least minWindow long, as keep windowSamples in every one.
func endToEnd(lr loadResult) (figures, error) {
	f := figures{samples: len(lr.samples)}
	var lats [][]int64
	var window time.Duration
	for nw := min(int((lr.to-lr.from)/int64(minWindow)), len(lr.samples)/windowSamples); nw >= 1 && lats == nil; nw-- {
		window = time.Duration((lr.to - lr.from) / int64(nw))
		lats = make([][]int64, nw)
		for _, s := range lr.samples {
			if w := int((s.sent - lr.from) / int64(window)); w < nw {
				lats[w] = append(lats[w], s.lat(lr.openLoop))
			}
		}
		for _, l := range lats {
			if len(l) < windowSamples {
				lats = nil
				break
			}
		}
	}
	if lats == nil {
		return f, fmt.Errorf("%d samples over %v do not fill one window of %d", len(lr.samples), time.Duration(lr.to-lr.from), windowSamples)
	}
	for _, l := range lats {
		sortInt64(l)
		p50, err := percentile(l, 0.50)
		if err != nil {
			return f, fmt.Errorf("window latency: %w", err)
		}
		p99, err := percentile(l, 0.99)
		if err != nil {
			return f, fmt.Errorf("window latency: %w", err)
		}
		f.eps = append(f.eps, float64(len(l))/window.Seconds())
		f.p50s = append(f.p50s, float64(p50)/1e3)
		f.p99s = append(f.p99s, float64(p99)/1e3)
	}
	lags := make([]int64, 0, len(lr.samples))
	for _, s := range lr.samples {
		lags = append(lags, s.lag())
	}
	sortInt64(lags)
	lag, err := percentile(lags, 0.99)
	if err != nil {
		return f, fmt.Errorf("generator lag: %w", err)
	}
	f.lagP99 = float64(lag) / 1e3
	return f, nil
}
