package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the two nearest order statistics of the sorted
// sample (the numpy/R type-7 definition). It is exact over the recorded
// samples: no histogram bucketing. An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// bucketQuantile estimates the q-quantile of a log2-bucketed histogram
// (obsv layout: bucket with lower bound lo covers [lo, 2*lo), bucket 0
// holds exact zeros), interpolating linearly inside the bucket. It is
// used only for server-internal queue waits, which the server exposes
// only as buckets; its resolution is one bucket (a factor of two).
func bucketQuantile(buckets map[int64]int64, q float64) float64 {
	var total int64
	los := make([]int64, 0, len(buckets))
	for lo, n := range buckets {
		if n > 0 {
			los = append(los, lo)
			total += n
		}
	}
	if total == 0 {
		return 0
	}
	sort.Slice(los, func(i, j int) bool { return los[i] < los[j] })
	rank := q * float64(total)
	var seen float64
	for _, lo := range los {
		n := float64(buckets[lo])
		if seen+n >= rank {
			if lo == 0 {
				return 0
			}
			return float64(lo) + float64(lo)*(rank-seen)/n
		}
		seen += n
	}
	last := los[len(los)-1]
	return float64(2 * last)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
