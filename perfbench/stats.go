package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the percentiles a tail latency may be reported at,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the number of samples that must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
func rankIndex(p float64, n int) int {
	k := int(math.Ceil(p*float64(n)/100-1e-9)) - 1 // the epsilon absorbs 99.9/100 rounding up
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// tailPercentile returns the highest percentile in tailPercentiles, at most
// max, that leaves at least minBeyond of n samples above it. With too few
// samples for any of them it returns 50, the median.
func tailPercentile(n int, max float64) float64 {
	for _, p := range tailPercentiles {
		if p > max {
			continue
		}
		if n > 0 && n-1-rankIndex(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

// Latencies is one sample set of operation latencies.
type Latencies []time.Duration

// summary is a latency sample set reduced to its median and tail.
type summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`      // in the unit the caller asked for
	Tail    float64 `json:"tail"`     // value at TailPct
	TailPct float64 `json:"tail_pct"` // highest percentile ≤ 99 with ≥10 samples beyond it
}

// summarize reports the median and the tail percentile, both divided by
// unit.
func (l Latencies) summarize(unit time.Duration) summary {
	if len(l) == 0 {
		return summary{}
	}
	p := tailPercentile(len(l), 99)
	return summary{N: len(l), P50: l.percentile(50, unit), Tail: l.percentile(p, unit), TailPct: p}
}

// percentile returns the nearest-rank percentile p divided by unit, 0 for
// no samples.
func (l Latencies) percentile(p float64, unit time.Duration) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append(Latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[rankIndex(p, len(s))]) / float64(unit)
}

// mean returns the mean latency divided by unit, 0 for no samples.
func (l Latencies) mean(unit time.Duration) float64 {
	if len(l) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range l {
		sum += d
	}
	return float64(sum) / float64(len(l)) / float64(unit)
}

// median returns the median latency divided by unit, 0 for no samples.
func (l Latencies) median(unit time.Duration) float64 { return l.percentile(50, unit) }

// medianFloat returns the median of xs, 0 for none.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(50, len(s))]
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
