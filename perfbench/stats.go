package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile (p in [0,1]) of xs by linear
// interpolation between closest ranks, the definition numpy and
// Python's statistics module ("inclusive") share. It does not modify xs.
// An empty slice yields NaN so a missing sample can never read as a fast
// one.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile is the highest of the candidate percentiles (descending
// 0.99, 0.9, 0.5) that leaves at least minBeyond samples above it; it
// returns 0.5 when even the median has fewer. A tail percentile read from
// fewer samples is the run's maximum wearing a percentile's name.
func tailPercentile(n, minBeyond int) float64 {
	for _, pct := range []int{99, 90} {
		if n*(100-pct) >= minBeyond*100 {
			return float64(pct) / 100
		}
	}
	return 0.5
}

// failFrac is the share of attempted operations that did not complete
// correctly — errored, rejected by admission, shed by the load generator,
// or lost in transport. Zero attempts is reported as total failure so a
// run that did nothing cannot pass as clean.
func failFrac(attempted, failed int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMs converts durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
