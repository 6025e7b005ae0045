package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the reporting rule for tails: a percentile is reported only
// when at least this many samples lie beyond it.
const minBeyond = 10

// tailCandidates are the tail percentiles, in per-mille, highest first.
var tailCandidates = []int{999, 990, 900}

// tailPermille returns the highest candidate percentile (per-mille) with at
// least minBeyond of n samples beyond it: p90 needs 100 samples, p99 1000,
// p99.9 10000. ok is false when even p90 has too few.
func tailPermille(n int) (permille int, ok bool) {
	for _, q := range tailCandidates {
		if n-rankOf(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// rankOf is the 1-based nearest rank of the per-mille percentile q among n
// sorted samples: ceil(q·n/1000), at least 1.
func rankOf(n, permille int) int {
	r := (n*permille + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank per-mille percentile of sorted.
func percentile(sorted []float64, permille int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(len(sorted), permille)-1]
}

// median of unsorted values (the mean of the middle two for even counts).
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := sortedCopy(values)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) with its
// default 'exclusive' method, which is how the spread of a set of runs is
// judged. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	if ld < 2 {
		v := math.NaN()
		if ld == 1 {
			v = s[0]
		}
		return v, v, v
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// latencies collects one op class's samples in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/float64(time.Millisecond)) }

// summary is the reportable view of a class: its p50 and, when the sample
// count allows, its tail.
type classSummary struct {
	N        int     `json:"n"`
	P50      float64 `json:"p50_ms"`
	Tail     float64 `json:"tail_ms,omitempty"`
	TailName string  `json:"tail,omitempty"`
}

func summarize(l latencies) classSummary {
	s := sortedCopy(l)
	out := classSummary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P50 = percentile(s, 500)
	if q, ok := tailPermille(len(s)); ok {
		out.Tail = percentile(s, q)
		out.TailName = tailName(q)
	}
	return out
}

func tailName(permille int) string {
	switch permille {
	case 999:
		return "p99.9"
	case 990:
		return "p99"
	default:
		return "p90"
	}
}
