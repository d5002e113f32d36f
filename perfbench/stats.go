package main

import (
	"sort"
	"time"
)

// samples is a set of latencies in microseconds, each with a weight (the
// number of events it stands for). The engine workloads weight a step's
// duration by the bids, assignments or payments it produced; the wire
// workload records one sample per event.
type samples struct {
	v []float64
	w []int64
	n int64
}

func (s *samples) add(us float64) { s.addN(us, 1) }

func (s *samples) addN(us float64, n int) {
	if n <= 0 {
		return
	}
	s.v = append(s.v, us)
	s.w = append(s.w, int64(n))
	s.n += int64(n)
}

func (s *samples) addDur(d time.Duration, n int) { s.addN(float64(d.Nanoseconds())/1e3, n) }

func (s *samples) merge(o *samples) {
	s.v = append(s.v, o.v...)
	s.w = append(s.w, o.w...)
	s.n += o.n
}

// count returns the number of separate timings (not their weight).
func (s *samples) count() int { return len(s.v) }

// quantile returns the nearest-rank q-quantile, or 0 when fewer than ten
// separate timings lie beyond it: such a percentile is dropped.
func (s *samples) quantile(q float64) float64 {
	if !s.supports(q) {
		return 0
	}
	idx := make([]int, len(s.v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.v[idx[a]] < s.v[idx[b]] })
	rank := int64(q*float64(s.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, i := range idx {
		cum += s.w[i]
		if cum >= rank {
			return s.v[i]
		}
	}
	return s.v[idx[len(idx)-1]]
}

// supports reports whether at least ten separate timings lie beyond
// quantile q, the rule for reporting a percentile at all. A weighted
// timing counts once: one slow step that acked many bids is one sample.
func (s *samples) supports(q float64) bool {
	return float64(len(s.v))*(1-q) >= 10
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
