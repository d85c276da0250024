package metrics

import (
	"maps"
	"math"
	"slices"
)

// sketch is an online, mergeable quantile sketch with a bounded relative
// error, in the style of DDSketch [Masson et al., VLDB 2019]: observations
// land in logarithmically spaced buckets, so any reported quantile is within
// a factor of (1 ± sketchAccuracy) of the exact sample quantile at the same
// rank. Memory is proportional to the dynamic range of the data (a few
// hundred buckets for nanoseconds-to-hours of durations), never to the
// number of observations, which is what lets every migration in a long run
// feed one sketch cheaply.
//
// The zero value is not usable; construct with newSketch. All operations are
// deterministic functions of the inserted values, so sketches are safe to
// include in golden snapshots.
type sketch struct {
	pos  map[int]uint64 // buckets for v > 0: index ceil(log_gamma v)
	neg  map[int]uint64 // buckets for v < 0, keyed by |v|'s index
	zero uint64         // exact zeros

	n        uint64
	min, max float64
}

// sketchAccuracy is every sketch's relative error: quantiles within 1% of
// the exact value. It is a variable, not a constant, so the bucket geometry
// below is computed in float64 arithmetic rather than folded exactly at
// compile time — snapshot quantiles depend on its last bit.
var sketchAccuracy = 0.01

var (
	sketchGamma  = (1 + sketchAccuracy) / (1 - sketchAccuracy) // bucket growth factor
	sketchLgamma = math.Log(sketchGamma)
)

// newSketch returns an empty sketch.
func newSketch() *sketch {
	return &sketch{
		pos: make(map[int]uint64),
		neg: make(map[int]uint64),
		min: math.Inf(1),
		max: math.Inf(-1),
	}
}

// add records one observation. NaN is ignored; infinities are clamped to
// ±MaxFloat64 so they land in the extreme buckets instead of poisoning the
// index arithmetic.
func (s *sketch) add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if math.IsInf(v, 1) {
		v = math.MaxFloat64
	} else if math.IsInf(v, -1) {
		v = -math.MaxFloat64
	}
	s.n++
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	switch {
	case v > 0:
		s.pos[sketchBucket(v)]++
	case v < 0:
		s.neg[sketchBucket(-v)]++
	default:
		s.zero++
	}
}

// sketchBucket maps a positive magnitude to its log-spaced bucket index.
func sketchBucket(v float64) int {
	return int(math.Ceil(math.Log(v) / sketchLgamma))
}

// sketchValue returns the representative magnitude of bucket i: the bucket
// midpoint 2*gamma^i/(gamma+1), which is within sketchAccuracy of every
// value the bucket can hold.
func sketchValue(i int) float64 {
	return 2 * math.Pow(sketchGamma, float64(i)) / (sketchGamma + 1)
}

// merge folds other into s.
func (s *sketch) merge(other *sketch) {
	for i, c := range other.pos {
		s.pos[i] += c
	}
	for i, c := range other.neg {
		s.neg[i] += c
	}
	s.zero += other.zero
	s.n += other.n
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// quantile returns an estimate of the q-th quantile (0 <= q <= 1): the
// representative value of the bucket holding the observation of rank
// round(q*(n-1)) in sorted order. The estimate is within a relative factor
// of sketchAccuracy of that observation's true value (exact for zeros, and
// pinned to the true min/max at the extremes). An empty sketch reports 0.
func (s *sketch) quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := uint64(math.Round(q * float64(s.n-1)))

	// Walk the value axis in ascending order: negative buckets from the
	// most negative (largest magnitude) down, then zeros, then positive
	// buckets ascending.
	cum := uint64(0)
	for _, i := range slices.Backward(slices.Sorted(maps.Keys(s.neg))) {
		cum += s.neg[i]
		if rank < cum {
			return clamp(-sketchValue(i), s.min, s.max)
		}
	}
	cum += s.zero
	if rank < cum {
		return 0
	}
	for _, i := range slices.Sorted(maps.Keys(s.pos)) {
		cum += s.pos[i]
		if rank < cum {
			return clamp(sketchValue(i), s.min, s.max)
		}
	}
	return s.max
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
