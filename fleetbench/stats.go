package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// median is the middle of xs, interpolated for an even count; NaN when
// xs is empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs, interpolated between neighbours;
// NaN when xs is empty.
func quantile(xs []float64, q float64) float64 { return stats.Quantile(xs, q) }

// timing summarizes one per-call duration distribution: its median and
// its highest percentile that still has at least ten samples beyond it,
// with the sample count.
type timing struct {
	n        int
	p50, p99 float64
	// tail and tailQ are the highest percentile with ten or more samples
	// above it (tailQ = 0.999, 0.99, 0.9 or 0.5) and its value.
	tail  float64
	tailQ float64
}

// summarize sorts xs in place and returns its timing summary. The p99
// field is the nearest-rank 99th percentile whatever the sample count;
// tail says how far out the data actually supports.
func summarize(xs []float64) timing {
	if len(xs) == 0 {
		return timing{}
	}
	sort.Float64s(xs)
	t := timing{n: len(xs), p50: rank(xs, 0.5), p99: rank(xs, 0.99), tailQ: 0.5}
	t.tail = t.p50
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(len(xs))*(1-q) >= 10 {
			t.tail, t.tailQ = rank(xs, q), q
			break
		}
	}
	return t
}

// rank is the nearest-rank q-quantile of sorted xs.
func rank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// bucketQuantile estimates the q-quantile of a cumulative Prometheus
// histogram (upper bounds les, cumulative counts cum, both ascending,
// the last bound +Inf), interpolating linearly inside the bucket.
func bucketQuantile(les, cum []float64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	target := q * cum[len(cum)-1]
	prevLE, prevCum := 0.0, 0.0
	for i := range cum {
		if cum[i] >= target {
			if math.IsInf(les[i], 1) {
				return prevLE
			}
			if cum[i] == prevCum {
				return les[i]
			}
			return prevLE + (les[i]-prevLE)*(target-prevCum)/(cum[i]-prevCum)
		}
		prevLE, prevCum = les[i], cum[i]
	}
	return prevLE
}
