package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of an ascending slice by
// nearest rank, or NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latencySummary is one phase's latency distribution as the report
// prints it: median, the highest standard percentile with at least ten
// samples beyond it, and the sample count.
type latencySummary struct {
	n             int
	p50, p90, p99 float64
	tailPct       float64 // the highest percentile the sample supports
	tail          float64
}

// summarize sorts lat in place and summarizes it. Failed requests are
// carried as +Inf, so they land beyond every percentile.
func summarize(lat []float64) latencySummary {
	sort.Float64s(lat)
	s := latencySummary{n: len(lat), p50: quantile(lat, 0.50), p90: quantile(lat, 0.90), p99: quantile(lat, 0.99)}
	s.tailPct = 50
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		if float64(len(lat))*(1-p/100) >= 10 {
			s.tailPct = p
		}
	}
	s.tail = quantile(lat, s.tailPct/100)
	return s
}

func (s latencySummary) String() string {
	out := fmt.Sprintf("p50 %.3f ms", s.p50)
	if s.tailPct > 90 {
		out += fmt.Sprintf(", p90 %.3f ms", s.p90)
	}
	if s.tailPct > 50 {
		out += fmt.Sprintf(", p%g %.3f ms", s.tailPct, s.tail)
	}
	return out + fmt.Sprintf(" (n=%d)", s.n)
}
