package main

import (
	"math"
	"sort"
	"time"
)

// latencies is a sorted set of request latencies.
type latencies []time.Duration

func sorted(ds []time.Duration) latencies {
	out := append(latencies(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pct is the nearest-rank percentile p ∈ (0, 100].
func (l latencies) pct(p float64) time.Duration {
	if len(l) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(l)))) - 1
	if k < 0 {
		k = 0
	}
	return l[k]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
