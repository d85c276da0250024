package metrics

import (
	"math"
	"sort"
	"time"
)

// Sample accumulates observations and summarizes them.
type Sample struct {
	values []float64
	sorted bool

	// Mean and variance are memoized between Adds, like the sorted flag:
	// repeated Mean/Std calls on a settled sample must not rescan it.
	momentsValid bool
	cachedMean   float64
	cachedVar    float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
	s.momentsValid = false
}

// AddDuration records a duration observation in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// ensureMoments computes mean and population variance once per batch of
// Adds, in the same two-pass order the unmemoized code used so results are
// bit-identical.
func (s *Sample) ensureMoments() {
	if s.momentsValid {
		return
	}
	s.momentsValid = true
	n := len(s.values)
	if n == 0 {
		s.cachedMean, s.cachedVar = 0, 0
		return
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	m := sum / float64(n)
	sq := 0.0
	for _, v := range s.values {
		d := v - m
		sq += d * d
	}
	s.cachedMean = m
	s.cachedVar = sq / float64(n)
}

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	s.ensureMoments()
	return s.cachedMean
}

// Std returns the population standard deviation.
func (s *Sample) Std() float64 {
	s.ensureMoments()
	return math.Sqrt(s.cachedVar)
}

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[0]
}

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[len(s.values)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank interpolation.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo]
	}
	frac := rank - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 {
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}
