package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if s.N() != 4 {
		t.Fatalf("N = %d", s.N())
	}
	if !almost(s.Mean(), 2.5) {
		t.Fatalf("mean = %v", s.Mean())
	}
	if !almost(s.Std(), math.Sqrt(1.25)) {
		t.Fatalf("std = %v", s.Std())
	}
	if s.Min() != 1 || s.Max() != 4 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if !almost(s.Sum(), 10) {
		t.Fatalf("sum = %v", s.Sum())
	}
}

func TestEmptySampleIsSafe(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Std() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty sample should summarize to zeros")
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); !almost(got, c.want) {
			t.Fatalf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestAddDuration(t *testing.T) {
	var s Sample
	s.AddDuration(1500 * time.Millisecond)
	if !almost(s.Mean(), 1.5) {
		t.Fatalf("mean = %v", s.Mean())
	}
}

func TestPercentileMonotonic(t *testing.T) {
	f := func(vals []float64, a, b uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var s Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		pa := float64(a) / 255 * 100
		pb := float64(b) / 255 * 100
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Percentile(pa) <= s.Percentile(pb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanBounded(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		var s Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true // outside the library's duration-seconds domain
			}
			s.Add(v)
		}
		m := s.Mean()
		return m >= s.Min()-1e-6 && m <= s.Max()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMomentsMemoized: Mean/Std results must survive interleaved reads and
// stay correct after further Adds invalidate the cache.
func TestMomentsMemoized(t *testing.T) {
	var s Sample
	for i := 1; i <= 4; i++ {
		s.Add(float64(i))
	}
	m1, d1 := s.Mean(), s.Std()
	if m2, d2 := s.Mean(), s.Std(); m1 != m2 || d1 != d2 {
		t.Fatalf("repeated reads changed: %v/%v vs %v/%v", m1, d1, m2, d2)
	}
	// Sorting accessors must not disturb the cached moments.
	_ = s.Percentile(50)
	if !almost(s.Mean(), 2.5) || !almost(s.Std(), math.Sqrt(1.25)) {
		t.Fatalf("moments after sort: mean=%v std=%v", s.Mean(), s.Std())
	}
	s.Add(100)
	if almost(s.Mean(), 2.5) {
		t.Fatal("Add did not invalidate the cached mean")
	}
	want := 0.0
	for _, v := range []float64{1, 2, 3, 4, 100} {
		want += v
	}
	if !almost(s.Mean(), want/5) {
		t.Fatalf("mean after invalidation = %v", s.Mean())
	}
}
